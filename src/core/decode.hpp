#pragma once
// Treeless canonical decoding using the First/Entry metadata (§IV-B2).
//
// After reading L bits with accumulated value v, the code is complete iff
// first[L] <= v < first[L] + count[L]; the symbol is then
// sorted_syms[entry[L] + (v - first[L])]. No tree is touched — the three
// small arrays are the whole decoder state, which is why the paper caches
// them for decoding throughput.
//
// The walk every tier shares (decode_symbols) resolves most codewords with
// one probe of a 2^k-slot lookup table built from those arrays (DecodeLut),
// applies the First/Count test above to the same 64-bit window for codes
// longer than k, and drops to the bit-serial loop (decode_bitserial) for a
// single symbol only when neither completes. docs/decode.md has the tail
// rule and the choice of k.
//
// decode_stream understands the chunked container, decoding chunks in
// parallel and splicing overflow (breaking) groups back in at their group
// boundaries.
//
// All entry points take an optional CancelToken polled cooperatively (every
// 64 Ki symbols inside the walk, and at its entry, which also covers every
// chunk and overflow-group entry) — a decode whose deadline passes or whose
// request is cancelled abandons mid-stream by throwing, exactly like the
// encode stages (core/cancel.hpp). The no-token path costs one predictable
// branch per symbol batch.

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Lookup table for one Codebook: slot i holds (symbol << 8) | len for the
/// codeword of length len <= k that prefixes the k-bit value i, or 0 when
/// only a longer codeword (or none) does. k = min(kMaxBits, max_len), so
/// the table is at most 8 KiB and stays L1-resident next to the book.
///
/// Build one per decode call and pass it down; it is deliberately not a
/// Codebook member, so First/Entry stay the single source of truth for
/// every construction site. Refers to `cb`, which must outlive it.
struct DecodeLut {
  static constexpr unsigned kMaxBits = 11;

  explicit DecodeLut(const Codebook& cb);

  const Codebook* cb;
  unsigned k;
  std::vector<u32> slots;
};

/// Decode exactly `count` symbols from `br` with the table walk. Throws
/// std::runtime_error on a corrupt stream (code longer than max_len or
/// stream exhaustion); OperationCancelled / DeadlineExpired from a fired
/// `cancel` poll.
template <typename Sym>
void decode_symbols(BitReader& br, const DecodeLut& lut, std::size_t count,
                    Sym* out, const CancelToken* cancel = nullptr);

/// Convenience form for a single call: builds the table, then walks.
template <typename Sym>
void decode_symbols(BitReader& br, const Codebook& cb, std::size_t count,
                    Sym* out, const CancelToken* cancel = nullptr);

/// The bit-serial First/Count walk: one bit per step. The table walk's
/// fallback for a symbol it cannot complete, and the tests' reference.
template <typename Sym>
void decode_bitserial(BitReader& br, const Codebook& cb, std::size_t count,
                      Sym* out);

/// Chunk → overflow-entry run boundaries: chunk c owns entries
/// [runs[c], runs[c + 1]). Throws std::runtime_error when the entries are
/// not sorted by chunk.
[[nodiscard]] std::vector<std::size_t> overflow_runs(const EncodedStream& s);

/// Decode all of chunk `c` into `dst` (which must hold chunk_size(c)
/// symbols), splicing its overflow groups back in from the side stream.
/// `runs` comes from overflow_runs(s).
template <typename Sym>
void decode_chunk(const EncodedStream& s, const DecodeLut& lut,
                  std::span<const std::size_t> runs, std::size_t c, Sym* dst,
                  const CancelToken* cancel = nullptr);

/// Decode a full chunked stream (any encoder's output).
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_stream(const EncodedStream& s,
                                             const Codebook& cb,
                                             int threads = 0,
                                             const CancelToken* cancel =
                                                 nullptr);

/// Random access: decode only symbols [first, first + count) — the chunked
/// layout makes this touch just the covering chunks, so reading a slice of
/// a large compressed array costs O(slice + one chunk) work, not a full
/// decompress. Throws std::out_of_range when the range exceeds the stream.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_range(const EncodedStream& s,
                                            const Codebook& cb,
                                            std::size_t first,
                                            std::size_t count,
                                            int threads = 0,
                                            const CancelToken* cancel =
                                                nullptr);

extern template void decode_symbols<u8>(BitReader&, const DecodeLut&,
                                        std::size_t, u8*, const CancelToken*);
extern template void decode_symbols<u16>(BitReader&, const DecodeLut&,
                                         std::size_t, u16*,
                                         const CancelToken*);
extern template void decode_symbols<u8>(BitReader&, const Codebook&,
                                        std::size_t, u8*, const CancelToken*);
extern template void decode_symbols<u16>(BitReader&, const Codebook&,
                                         std::size_t, u16*,
                                         const CancelToken*);
extern template void decode_bitserial<u8>(BitReader&, const Codebook&,
                                          std::size_t, u8*);
extern template void decode_bitserial<u16>(BitReader&, const Codebook&,
                                           std::size_t, u16*);
extern template void decode_chunk<u8>(const EncodedStream&, const DecodeLut&,
                                      std::span<const std::size_t>,
                                      std::size_t, u8*, const CancelToken*);
extern template void decode_chunk<u16>(const EncodedStream&,
                                       const DecodeLut&,
                                       std::span<const std::size_t>,
                                       std::size_t, u16*, const CancelToken*);
extern template std::vector<u8> decode_stream<u8>(const EncodedStream&,
                                                  const Codebook&, int,
                                                  const CancelToken*);
extern template std::vector<u16> decode_stream<u16>(const EncodedStream&,
                                                    const Codebook&, int,
                                                    const CancelToken*);
extern template std::vector<u8> decode_range<u8>(const EncodedStream&,
                                                 const Codebook&, std::size_t,
                                                 std::size_t, int,
                                                 const CancelToken*);
extern template std::vector<u16> decode_range<u16>(const EncodedStream&,
                                                   const Codebook&,
                                                   std::size_t, std::size_t,
                                                   int, const CancelToken*);

}  // namespace parhuff
