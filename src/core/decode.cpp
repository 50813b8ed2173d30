#include "core/decode.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace parhuff {

namespace {

/// Symbols between two cancel polls inside the walk — the same stride as
/// histogram_serial (core/cancel.hpp).
constexpr std::size_t kPollStride = std::size_t{1} << 16;

}  // namespace

DecodeLut::DecodeLut(const Codebook& book)
    : cb(&book),
      k(std::clamp<unsigned>(book.max_len, 1, kMaxBits)),
      slots(std::size_t{1} << k, 0) {
  const std::size_t levels = std::min(
      {book.first.size(), book.count.size(), book.entry.size()});
  const unsigned top = static_cast<unsigned>(
      std::min<std::size_t>({k, book.max_len, levels ? levels - 1 : 0}));
  // Every codeword of length len <= k owns the 2^(k-len) slots its bits
  // prefix. Longest level first, so where a malformed book's ranges
  // overlap the shortest code wins, as it does in the bit-serial walk.
  for (unsigned len = top; len >= 1; --len) {
    const u64 codes = u64{1} << len;
    if (book.first[len] >= codes) continue;
    const u64 n = std::min<u64>(book.count[len], codes - book.first[len]);
    const unsigned shift = k - len;
    for (u64 j = 0; j < n; ++j) {
      const u64 at = book.entry[len] + j;
      if (at >= book.sorted_syms.size()) break;
      const u32 sym = book.sorted_syms[at];
      // A symbol too wide to pack keeps slot 0 and resolves bit-serially.
      if (sym >= (u32{1} << 24)) continue;
      std::fill_n(slots.begin() + static_cast<std::ptrdiff_t>(
                                      (book.first[len] + j) << shift),
                  std::size_t{1} << shift, (sym << 8) | len);
    }
  }
}

template <typename Sym>
void decode_bitserial(BitReader& br, const Codebook& cb, std::size_t count,
                      Sym* out) {
  const unsigned max_len = cb.max_len;
  for (std::size_t k = 0; k < count; ++k) {
    u64 v = 0;
    unsigned l = 0;
    for (;;) {
      if (br.exhausted() || l >= max_len + 1) {
        throw std::runtime_error("decode: corrupt stream");
      }
      v = (v << 1) | br.bit();
      ++l;
      if (l <= max_len && cb.count[l] != 0 && v >= cb.first[l] &&
          v - cb.first[l] < cb.count[l]) {
        const u32 sym =
            cb.sorted_syms[cb.entry[l] + static_cast<u32>(v - cb.first[l])];
        out[k] = static_cast<Sym>(sym);
        break;
      }
    }
  }
}

template <typename Sym>
void decode_symbols(BitReader& br, const DecodeLut& lut, std::size_t count,
                    Sym* out, const CancelToken* cancel) {
  const Codebook& cb = *lut.cb;
  // Locals, not members: a u8 output store may alias anything reachable
  // through a reference, which would force reloads on every symbol.
  const BitReader src = br;
  const u32* const slots = lut.slots.data();
  const unsigned k = lut.k;
  const u64 total = src.total_bits();
  u64 left = src.remaining();

  // The window holds the next `have` bits, the next one most significant.
  // Whole cells are fetched, so the window may run past the stream's end;
  // a codeword is accepted only when its length fits in `left`.
  u64 win = 0;
  unsigned have = 0;
  std::size_t next = 0;
  const auto load = [&] {
    const u64 pos = total - left;
    const unsigned off = static_cast<unsigned>(pos % kWordBits);
    next = static_cast<std::size_t>(pos / kWordBits);
    win = static_cast<u64>(src.cell(next++)) << (kWordBits + off);
    have = kWordBits - off;
  };
  load();

  std::size_t i = 0;
  while (i < count) {
    // Cooperative poll at entry and every kPollStride symbols.
    if (cancel) cancel->check();
    const std::size_t stop = count - i > kPollStride ? i + kPollStride : count;
    for (; i < stop; ++i) {
      if (have <= kWordBits) {
        win |= static_cast<u64>(src.cell(next++)) << (kWordBits - have);
        have += kWordBits;
      }
      const u32 slot = slots[win >> (64 - k)];
      u32 sym = slot >> 8;
      unsigned len = slot & 0xFFu;
      if (len == 0 || len > left) [[unlikely]] {
        // No code of length <= k, or the tail: the First/Count test on the
        // window bits that lie inside the stream.
        len = 0;
        const unsigned limit = static_cast<unsigned>(
            std::min<u64>({cb.max_len, have, left}));
        for (unsigned l = k + 1; l <= limit; ++l) {
          const u64 v = win >> (64 - l);
          if (v - cb.first[l] < cb.count[l]) {
            sym = cb.sorted_syms[cb.entry[l] +
                                 static_cast<u32>(v - cb.first[l])];
            len = l;
            break;
          }
        }
        if (len == 0) {
          // Longer than the window, or corrupt: one bit-serial symbol,
          // which also owns the "corrupt stream" rejection.
          br.seek(total - left);
          decode_bitserial(br, cb, 1, out + i);
          left = br.remaining();
          load();
          continue;
        }
      }
      out[i] = static_cast<Sym>(sym);
      win <<= len;
      have -= len;
      left -= len;
    }
  }
  br.seek(total - left);
}

template <typename Sym>
void decode_symbols(BitReader& br, const Codebook& cb, std::size_t count,
                    Sym* out, const CancelToken* cancel) {
  decode_symbols(br, DecodeLut(cb), count, out, cancel);
}

std::vector<std::size_t> overflow_runs(const EncodedStream& s) {
  const std::size_t chunks = s.chunks();
  std::vector<std::size_t> runs(chunks + 1, s.overflow.size());
  std::size_t e = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    runs[c] = e;
    while (e < s.overflow.size() && s.overflow[e].chunk == c) ++e;
  }
  runs[chunks] = e;
  if (e != s.overflow.size()) {
    throw std::runtime_error("decode: overflow entries out of order");
  }
  return runs;
}

template <typename Sym>
void decode_chunk(const EncodedStream& s, const DecodeLut& lut,
                  std::span<const std::size_t> runs, std::size_t c, Sym* dst,
                  const CancelToken* cancel) {
  const std::size_t nc = s.chunk_size(c);
  BitReader br = s.chunk_reader(c);
  const std::size_t e0 = runs[c];
  const std::size_t e1 = runs[c + 1];
  if (e0 == e1) {
    decode_symbols(br, lut, nc, dst, cancel);
    return;
  }
  const std::size_t group_syms = s.group_symbols(c);
  if (group_syms == 0) {
    throw std::runtime_error("decode: overflow entries without reduce groups");
  }
  const std::size_t groups = (nc - 1) / group_syms + 1;
  BitReader obr(std::span<const word_t>(s.overflow_payload.data(),
                                        s.overflow_payload.size()),
                static_cast<u64>(s.overflow_payload.size()) * kWordBits);
  std::size_t e = e0;
  std::size_t i = 0;
  while (i < nc) {
    const std::size_t group = i / group_syms;
    if (e < e1 && s.overflow[e].group == group) {
      const OverflowEntry& entry = s.overflow[e];
      obr.seek(entry.bit_offset);
      decode_symbols(obr, lut, entry.n_symbols, dst + i, cancel);
      i += entry.n_symbols;
      ++e;
    } else {
      // Main-stream groups up to the next overflow group in one walk. A
      // stale entry (group already passed) advances one group at a time
      // and ends as "unconsumed".
      const std::size_t to =
          e < e1 ? std::min<std::size_t>(
                       std::max<std::size_t>(s.overflow[e].group, group + 1),
                       groups)
                 : groups;
      const std::size_t next = std::min(to * group_syms, nc);
      decode_symbols(br, lut, next - i, dst + i, cancel);
      i = next;
    }
  }
  if (e != e1) {
    throw std::runtime_error("decode: unconsumed overflow entries");
  }
}

template <typename Sym>
std::vector<Sym> decode_stream(const EncodedStream& s, const Codebook& cb,
                               int threads, const CancelToken* cancel) {
  std::vector<Sym> out(s.n_symbols);
  if (s.n_symbols == 0) return out;
  const std::vector<std::size_t> runs = overflow_runs(s);
  const DecodeLut lut(cb);
  parallel_for(
      s.chunks(),
      [&](std::size_t c) {
        decode_chunk(s, lut, runs, c, out.data() + c * s.chunk_symbols,
                     cancel);
      },
      threads);
  return out;
}

template <typename Sym>
std::vector<Sym> decode_range(const EncodedStream& s, const Codebook& cb,
                              std::size_t first, std::size_t count,
                              int threads, const CancelToken* cancel) {
  if (first + count < first || first + count > s.n_symbols) {
    throw std::out_of_range("decode_range: range exceeds stream");
  }
  std::vector<Sym> out(count);
  if (count == 0) return out;
  const std::vector<std::size_t> runs = overflow_runs(s);
  const DecodeLut lut(cb);

  const std::size_t c0 = first / s.chunk_symbols;
  const std::size_t c1 = (first + count - 1) / s.chunk_symbols;
  parallel_for(
      c1 - c0 + 1,
      [&](std::size_t k) {
        const std::size_t c = c0 + k;
        const std::size_t chunk_begin = c * s.chunk_symbols;
        const std::size_t nc = s.chunk_size(c);
        // Intersection of the chunk with the requested range.
        const std::size_t lo = std::max(first, chunk_begin);
        const std::size_t hi =
            std::min(first + count, chunk_begin + nc);
        if (lo >= hi) return;
        if (lo == chunk_begin && hi == chunk_begin + nc) {
          decode_chunk(s, lut, runs, c, out.data() + (lo - first), cancel);
          return;
        }
        // Partial chunk: decode it into scratch, copy the slice. (Huffman
        // streams have no sub-chunk entry points.)
        std::vector<Sym> scratch(nc);
        decode_chunk(s, lut, runs, c, scratch.data(), cancel);
        std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo -
                                                                chunk_begin),
                  scratch.begin() + static_cast<std::ptrdiff_t>(hi -
                                                                chunk_begin),
                  out.begin() + static_cast<std::ptrdiff_t>(lo - first));
      },
      threads);
  return out;
}

template void decode_symbols<u8>(BitReader&, const DecodeLut&, std::size_t,
                                 u8*, const CancelToken*);
template void decode_symbols<u16>(BitReader&, const DecodeLut&, std::size_t,
                                  u16*, const CancelToken*);
template void decode_symbols<u8>(BitReader&, const Codebook&, std::size_t,
                                 u8*, const CancelToken*);
template void decode_symbols<u16>(BitReader&, const Codebook&, std::size_t,
                                  u16*, const CancelToken*);
template void decode_bitserial<u8>(BitReader&, const Codebook&, std::size_t,
                                   u8*);
template void decode_bitserial<u16>(BitReader&, const Codebook&, std::size_t,
                                    u16*);
template void decode_chunk<u8>(const EncodedStream&, const DecodeLut&,
                               std::span<const std::size_t>, std::size_t, u8*,
                               const CancelToken*);
template void decode_chunk<u16>(const EncodedStream&, const DecodeLut&,
                                std::span<const std::size_t>, std::size_t,
                                u16*, const CancelToken*);
template std::vector<u8> decode_stream<u8>(const EncodedStream&,
                                           const Codebook&, int,
                                           const CancelToken*);
template std::vector<u16> decode_stream<u16>(const EncodedStream&,
                                             const Codebook&, int,
                                             const CancelToken*);
template std::vector<u8> decode_range<u8>(const EncodedStream&,
                                          const Codebook&, std::size_t,
                                          std::size_t, int,
                                          const CancelToken*);
template std::vector<u16> decode_range<u16>(const EncodedStream&,
                                            const Codebook&, std::size_t,
                                            std::size_t, int,
                                            const CancelToken*);

}  // namespace parhuff
