#include "core/encode_adaptive.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/encode_merge.hpp"

namespace parhuff {

namespace {

/// Largest r in [min_r, max_r] whose expected merged cell stays under
/// `Width` bits for a chunk averaging `avg_bits` per codeword.
u32 pick_chunk_reduce(double avg_bits, unsigned width, u32 min_r, u32 max_r) {
  // A 25% headroom below the cell width absorbs within-chunk variance:
  // a chunk whose average admits r exactly would break on every group
  // that runs slightly dense (mixed calm/burst chunks).
  const double budget = static_cast<double>(width) * 0.75;
  u32 r = min_r;
  while (r < max_r &&
         avg_bits * static_cast<double>(u64{1} << (r + 1)) < budget) {
    ++r;
  }
  return r;
}

}  // namespace

template <typename Sym, unsigned Width>
EncodedStream encode_adaptive_simt(std::span<const Sym> data,
                                   const Codebook& cb,
                                   const AdaptiveConfig& cfg,
                                   simt::MemTally* tally,
                                   AdaptiveStats* stats) {
  static_assert(Width == 32 || Width == 64,
                "cells are stored in 32-bit payload words");
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.min_reduce < 1 || cfg.min_reduce > cfg.max_reduce ||
      cfg.max_reduce >= cfg.magnitude) {
    throw std::invalid_argument("need 1 <= min_reduce <= max_reduce < magnitude");
  }
  constexpr std::size_t kCellsPerSlot = Width / kWordBits;
  const u32 M = cfg.magnitude;
  const std::size_t N = std::size_t{1} << M;

  EncodedStream out;
  out.chunk_symbols = static_cast<u32>(N);
  out.n_symbols = data.size();
  out.reduce_factor = cfg.min_reduce;  // fallback for chunks beyond the array
  const std::size_t chunks = (data.size() + N - 1) / N;
  out.chunk_bits.assign(chunks, 0);
  out.chunk_reduce.assign(chunks, static_cast<u8>(cfg.min_reduce));
  if (chunks == 0) return out;

  // Worst-case workspace per chunk: the fewest-merged configuration
  // (r = min_reduce) needs (N >> min_reduce) * cells-per-slot cells.
  const std::size_t ws_stride = (N >> cfg.min_reduce) * kCellsPerSlot;
  const auto work =
      std::make_unique_for_overwrite<word_t[]>(chunks * ws_stride);
  std::vector<detail::ChunkOverflow> chunk_ovf(chunks);
  // Per-chunk lookup-phase bit totals (each block writes its own slot).
  std::vector<u64> chunk_lookup_bits(chunks, 0);

  if (tally) {
    tally->global_read(cb.cw.size(), sizeof(Codeword),
                       simt::Pattern::kCoalesced);
  }

  simt::launch(
      static_cast<int>(chunks),
      static_cast<int>(std::clamp<std::size_t>(N >> cfg.max_reduce, 32, 1024)),
      tally, [&](simt::BlockCtx& blk) {
        const std::size_t c = static_cast<std::size_t>(blk.block_id());
        const std::size_t begin = c * N;
        const std::size_t end = std::min(begin + N, data.size());

        // Chunk bit count: a free byproduct of the lookup on the GPU.
        u64 chunk_code_bits = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const unsigned len = cb.cw[static_cast<std::size_t>(data[i])].len;
          if (len == 0) throw std::runtime_error("symbol absent");
          chunk_code_bits += len;
        }
        chunk_lookup_bits[c] = chunk_code_bits;

        // Per-chunk reduce decision (a block-local reduction on GPU).
        const double avg =
            end > begin ? static_cast<double>(chunk_code_bits) /
                              static_cast<double>(end - begin)
                        : 1.0;
        const u32 r =
            pick_chunk_reduce(avg, Width, cfg.min_reduce, cfg.max_reduce);
        out.chunk_reduce[c] = static_cast<u8>(r);
        blk.tally().ops(N);  // tree reduction for the bit count

        out.chunk_bits[c] = detail::merge_chunk<Width>(
            blk, data, c, M, r, cb, work.get() + c * ws_stride, chunk_ovf[c],
            /*seed_elem_bytes=*/sizeof(word_t));
      });

  detail::coalescing_copy(out, work.get(), ws_stride, tally);
  // Per-chunk factors travel with the stream: one strided byte per chunk.
  if (tally) {
    tally->global_write(chunks, 1, simt::Pattern::kCoalesced);
  }

  const u64 broken_symbols = detail::merge_overflow(out, chunk_ovf);
  if (stats) {
    stats->breaking_groups += out.overflow.size();
    stats->breaking_symbols += broken_symbols;
    for (std::size_t c = 0; c < chunks; ++c) {
      stats->r_histogram[out.chunk_reduce[c]] += 1;
      stats->total_code_bits += chunk_lookup_bits[c];
    }
  }
  return out;
}

template EncodedStream encode_adaptive_simt<u8, 32>(std::span<const u8>,
                                                    const Codebook&,
                                                    const AdaptiveConfig&,
                                                    simt::MemTally*,
                                                    AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 32>(std::span<const u16>,
                                                     const Codebook&,
                                                     const AdaptiveConfig&,
                                                     simt::MemTally*,
                                                     AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u8, 64>(std::span<const u8>,
                                                    const Codebook&,
                                                    const AdaptiveConfig&,
                                                    simt::MemTally*,
                                                    AdaptiveStats*);
template EncodedStream encode_adaptive_simt<u16, 64>(std::span<const u16>,
                                                     const Codebook&,
                                                     const AdaptiveConfig&,
                                                     simt::MemTally*,
                                                     AdaptiveStats*);

}  // namespace parhuff
