#include "core/encode_reduceshuffle.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/encode_merge.hpp"

namespace parhuff {

template <typename Sym>
EncodedStream encode_reduceshuffle_simt(std::span<const Sym> data,
                                        const Codebook& cb,
                                        const ReduceShuffleConfig& cfg,
                                        simt::MemTally* tally,
                                        ReduceShuffleStats* stats,
                                        const CancelToken* cancel) {
  // The modeled kernel holds 2^M 16-byte merge cells in shared memory:
  // 2^12 fill 64 KiB of the 96 KiB budget, and the paper's sweep tops out
  // at magnitude 12 for the same reason.
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.reduce_factor < 1 || cfg.reduce_factor > cfg.magnitude) {
    throw std::invalid_argument("reduce factor must be in [1, magnitude]");
  }
  const u32 M = cfg.magnitude;
  const u32 r = cfg.reduce_factor;
  const std::size_t N = std::size_t{1} << M;       // symbols per chunk
  const std::size_t n_cells = std::size_t{1} << (M - r);  // cells after reduce

  EncodedStream out;
  out.chunk_symbols = static_cast<u32>(N);
  out.n_symbols = data.size();
  out.reduce_factor = r;
  const std::size_t chunks = (data.size() + N - 1) / N;
  out.chunk_bits.assign(chunks, 0);
  if (chunks == 0) return out;

  // Workspace: every chunk's dense bitstream fits in 2^s cells (§IV-C).
  const auto work =
      std::make_unique_for_overwrite<word_t[]>(chunks * n_cells);
  std::vector<detail::ChunkOverflow> chunk_ovf(chunks);

  // Codebook resident in cache: one coalesced pull per launch.
  if (tally) {
    tally->global_read(cb.cw.size(), sizeof(Codeword),
                       simt::Pattern::kCoalesced);
  }

  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(n_cells, 32, 1024)), tally,
      [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        // Cooperative poll, once per chunk (= one block; core/cancel.hpp).
        if (cancel) cancel->check();
        out.chunk_bits[c] = detail::merge_chunk<kWordBits>(
            blk, data, c, M, r, cb, work.get() + c * n_cells, chunk_ovf[c],
            /*seed_elem_bytes=*/8);
      });

  detail::coalescing_copy(out, work.get(), n_cells, tally);
  const u64 broken_symbols = detail::merge_overflow(out, chunk_ovf);
  if (stats) {
    stats->breaking_groups += out.overflow.size();
    stats->breaking_symbols += broken_symbols;
    stats->reduce_iterations = r;
    stats->shuffle_iterations = M - r;
  }
  return out;
}

template EncodedStream encode_reduceshuffle_simt<u8>(std::span<const u8>,
                                                     const Codebook&,
                                                     const ReduceShuffleConfig&,
                                                     simt::MemTally*,
                                                     ReduceShuffleStats*,
                                                     const CancelToken*);
template EncodedStream encode_reduceshuffle_simt<u16>(
    std::span<const u16>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);

}  // namespace parhuff
