#pragma once
// The per-chunk merge pass shared by the REDUCE/SHUFFLE encoder
// (encode_reduceshuffle.hpp) and the adaptive encoder (encode_adaptive.hpp).
//
// What executes. For each 2^r-symbol group of a chunk the pass looks up the
// codewords and folds them into one cell held in a register. MERGE is
// associative, so the left fold holds exactly the bits of Fig. 1's pairwise
// REDUCE tree, and the group breaks exactly when its total length exceeds
// the cell width. A breaking group is re-encoded, unchanged, into the
// chunk's overflow section. Every other cell is appended word-at-a-time to
// the chunk's workspace, which is the stream Fig. 2's SHUFFLE tree builds:
// a batch move only ever concatenates two adjacent groups.
//
// What is priced. The block's MemTally is charged what the GPU kernel
// spends: the lookup, r pairwise REDUCE iterations, the breaking-point
// backtrace, and s = M - r SHUFFLE levels. The cells each level's batch
// moves carry are summed from the group lengths; no bits move to count
// them. See docs/model.md.

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bitstream.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/block.hpp"
#include "util/types.hpp"

namespace parhuff::detail {

/// One chunk's overflow section; entry bit offsets are local to it.
struct ChunkOverflow {
  std::vector<word_t> words;
  std::vector<OverflowEntry> entries;
};

/// Encode chunk `c` (2^M symbols, the last possibly short) of `data` in
/// groups of 2^r symbols merged into `Width`-bit cells. The chunk's main
/// stream goes to `dst`, which must hold (2^(M-r) * Width / 32) words;
/// breaking groups go to `ovf`. Returns the chunk's main-stream bits.
///
/// `seed_elem_bytes` is the element size charged for the SHUFFLE stage's
/// two seed accesses per 32-bit cell (the fixed-r kernel also seeds 8-byte
/// group lengths, the adaptive one only the cells).
template <unsigned Width, typename Sym>
u64 merge_chunk(simt::BlockCtx& blk, std::span<const Sym> data,
                std::size_t c, u32 M, u32 r, const Codebook& cb,
                word_t* dst, ChunkOverflow& ovf, u64 seed_elem_bytes) {
  static_assert(Width == 32 || Width == 64);
  constexpr u64 kCellsPerSlot = Width / kWordBits;
  const std::size_t N = std::size_t{1} << M;
  const std::size_t group_syms = std::size_t{1} << r;
  const std::size_t n_slots = N >> r;
  const std::size_t begin = c * N;
  const std::size_t end = std::min(begin + N, data.size());
  const std::size_t nc = end - begin;
  const std::size_t groups = (nc + group_syms - 1) >> r;
  const Codeword* book = cb.cw.data();
  auto& t = blk.tally();

  // Group lengths feed the SHUFFLE pricing; 0 for broken and empty groups.
  auto glen = blk.shared_array<u32>(n_slots);
  BitPacker<word_t*> stream(dst);
  BitWriter spill(ovf.words);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t gb = begin + (g << r);
    const std::size_t ge = std::min(gb + group_syms, end);
    u64 bits = 0;
    u64 len = 0;
    for (std::size_t i = gb; i < ge; ++i) {
      const Codeword cw = book[static_cast<std::size_t>(data[i])];
      if (cw.len == 0) throw std::runtime_error("symbol absent");
      bits = (bits << cw.len) | cw.bits;
      len += cw.len;
    }
    if (len <= Width) {
      stream.put(bits, static_cast<unsigned>(len));
      glen[g] = static_cast<u32>(len);
      continue;
    }
    // Breaking point: backtrace re-reads the group's source symbols.
    OverflowEntry e;
    e.chunk = static_cast<u32>(c);
    e.group = static_cast<u32>(g);
    e.bit_offset = spill.bits();
    e.n_symbols = static_cast<u32>(ge - gb);
    for (std::size_t i = gb; i < ge; ++i) {
      const Codeword cw = book[static_cast<std::size_t>(data[i])];
      spill.put(cw.bits, cw.len);
    }
    e.bit_len = static_cast<u32>(spill.bits() - e.bit_offset);
    ovf.entries.push_back(e);
    glen[g] = 0;
    t.global_read(ge - gb, sizeof(Sym), simt::Pattern::kStrided);
    t.global_write((e.bit_len + 7) / 8, 1, simt::Pattern::kStrided);
  }
  std::fill(glen.begin() + static_cast<std::ptrdiff_t>(groups), glen.end(),
            0u);
  stream.flush();
  spill.finish_into_sink();

  // Lookup: one thread per symbol slot.
  t.global_read(nc, sizeof(Sym), simt::Pattern::kCoalesced);
  t.shared_access(N, 12);  // codebook lookups + cell writes
  t.ops(N * 8);
  blk.sync();

  // REDUCE-merge: r in-place pairwise iterations (Fig. 1). Active threads
  // halve each iteration, but retired lanes still occupy their warps' issue
  // slots until whole warps drain — the "waste of parallelism" §IV-C
  // describes — and later iterations shift/or progressively wider
  // accumulated operands. Charged as a superlinear per-iteration slot cost
  // (calibrated against Table II's measured r-ordering; see DESIGN.md).
  for (u64 it = 1; it <= r; ++it) {
    t.shared_access((N >> it) * 3, 12);
    t.ops(N * 3 * it * it / 2);
    blk.sync();
  }
  blk.sync();  // breaking points: mask, dense→sparse, backtrace

  // SHUFFLE-merge: s batch-move levels (Fig. 2). Each level moves every
  // right group of a pair onto its left neighbour; the pair's summed
  // length replaces it in place for the next level.
  const u64 slot_cells = n_slots * kCellsPerSlot;
  t.shared_access(slot_cells * 2, seed_elem_bytes);
  for (std::size_t pairs = n_slots / 2; pairs > 0; pairs /= 2) {
    u64 moved_cells = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const u32 right = glen[2 * p + 1];
      moved_cells += words_for_bits(right);
      glen[p] = glen[2 * p] + right;
    }
    // One thread per *cell slot*: a lane whose cell holds only a few
    // useful bits still executes the full two-step batch move, and
    // left/right groups diverge by a factor of two (§IV-C). This slot cost
    // — not the useful bits moved — is what makes an undersized reduce
    // factor expensive (Table II's r=2 column).
    t.shared_access(moved_cells * 3, sizeof(word_t));
    t.ops(slot_cells * 32);
    t.divergent_branches += pairs;
    blk.sync();
  }
  return stream.bits();
}

/// Coalescing copy (§IV-C step 4): the chunk bit lengths are laid out by
/// prefix sum, then one block per chunk copies its workspace words into the
/// payload. Only words the merge pass wrote are read, so the workspace may
/// be allocated uninitialised.
inline void coalescing_copy(EncodedStream& out, const word_t* work,
                            std::size_t stride, simt::MemTally* tally) {
  out.payload.assign(layout_chunks(out), 0);
  simt::launch(static_cast<int>(out.chunks()), 256, tally,
               [&](simt::BlockCtx& blk) {
                 const std::size_t c =
                     static_cast<std::size_t>(blk.block_id());
                 const std::size_t words = words_for_bits(out.chunk_bits[c]);
                 std::copy_n(work + c * stride, words,
                             out.payload.data() + out.chunk_word_offset[c]);
                 blk.tally().global_read(words, sizeof(word_t),
                                         simt::Pattern::kCoalesced);
                 blk.tally().global_write(words, sizeof(word_t),
                                          simt::Pattern::kCoalesced);
               });
}

/// Concatenate the per-chunk overflow sections in chunk order. Each
/// section is word-aligned so the concatenation stays a plain copy; entries
/// get the section's global bit base added. Returns the symbols the
/// overflow groups hold.
inline u64 merge_overflow(EncodedStream& out,
                          const std::vector<ChunkOverflow>& chunk_ovf) {
  u64 ovf_bits = 0;
  u64 symbols = 0;
  for (const ChunkOverflow& ovf : chunk_ovf) {
    if (ovf.entries.empty()) continue;
    for (OverflowEntry e : ovf.entries) {
      e.bit_offset += ovf_bits;
      out.overflow.push_back(e);
      symbols += e.n_symbols;
    }
    out.overflow_payload.insert(out.overflow_payload.end(), ovf.words.begin(),
                                ovf.words.end());
    ovf_bits += static_cast<u64>(ovf.words.size()) * kWordBits;
  }
  out.overflow_bits = ovf_bits;
  return symbols;
}

}  // namespace parhuff::detail
