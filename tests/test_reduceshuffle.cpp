// The REDUCE/SHUFFLE-merge encoder: round trips across the (M, r) sweep,
// bit-identity with the serial encoder when nothing breaks, forced breaking
// points, partial chunks, and the MERGE operation's 64-bit boundary.
#include <gtest/gtest.h>

#include <vector>

#include "core/decode.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

TEST(MergeOp, SixtyFourBitBoundary) {
  const auto ok = merge(Codeword{1, 32}, Codeword{1, 32});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.cw.len, 64);
  const auto bad = merge(Codeword{1, 33}, Codeword{1, 32});
  EXPECT_FALSE(bad.ok);
}

std::vector<u64> hist16(const std::vector<u16>& data, std::size_t nbins) {
  std::vector<u64> h(nbins, 0);
  for (u16 s : data) ++h[s];
  return h;
}

class ReduceShuffleSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32, int>> {};

TEST_P(ReduceShuffleSweep, RoundTripsAndMatchesSerialWhenUnbroken) {
  const auto [M, r, size_sel] = GetParam();
  if (r > M) GTEST_SKIP();
  const std::size_t sizes[] = {0, 1, 100, 4096, 100000, 31337};
  const std::size_t n = sizes[size_sel];

  const auto quant = data::generate_nyx_quant(std::max<std::size_t>(n, 1), 42);
  std::vector<u16> input(quant.begin(),
                         quant.begin() + static_cast<std::ptrdiff_t>(n));
  const auto freq = hist16(quant, 1024);
  const Codebook cb = build_codebook_serial(freq);

  ReduceShuffleConfig cfg{M, r};
  ReduceShuffleStats stats;
  simt::MemTally tally;
  const EncodedStream enc =
      encode_reduceshuffle_simt<u16>(input, cb, cfg, &tally, &stats);
  EXPECT_EQ(enc.reduce_factor, r);

  const auto back = decode_stream<u16>(enc, cb, 2);
  ASSERT_EQ(back, input) << "M=" << M << " r=" << r << " n=" << n;

  if (enc.overflow.empty()) {
    // Without breaking points the stream must be bit-identical to the
    // serial encoder at the same chunking.
    const EncodedStream ser = encode_serial<u16>(input, cb, u32{1} << M);
    EXPECT_EQ(enc.payload, ser.payload);
    EXPECT_EQ(enc.chunk_bits, ser.chunk_bits);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReduceShuffleSweep,
                         ::testing::Combine(::testing::Values(6u, 10u, 11u,
                                                              12u),
                                            ::testing::Values(1u, 2u, 3u, 4u,
                                                              6u),
                                            ::testing::Range(0, 6)));

TEST(ReduceShuffle, ForcedBreakingRoundTrips) {
  // Deep codebook (exponential freqs → codes up to ~30 bits) with large r:
  // groups of 2^4 symbols overflow 32-bit cells constantly.
  const auto freq = data::exponential_histogram(28, 2.0, 3);
  std::vector<u64> cum;
  u64 total = 0;
  for (u64 f : freq) {
    total += f;
    cum.push_back(total);
  }
  // Biased sampling toward rare (long-code) symbols to force breaking.
  Xoshiro256 rng(7);
  std::vector<u16> input(20000);
  for (auto& d : input) {
    d = static_cast<u16>(rng.below(28));  // uniform over symbols
  }
  const auto h = hist16(input, 28);
  const Codebook cb = build_codebook_serial(h);

  ReduceShuffleStats stats;
  const EncodedStream enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, 4}, nullptr, &stats);
  EXPECT_GT(stats.breaking_groups, 0u);
  EXPECT_GT(enc.breaking_fraction(), 0.0);
  EXPECT_EQ(decode_stream<u16>(enc, cb, 2), input);
}

TEST(ReduceShuffle, SingleCodewordLongerThanCellBreaks) {
  // A symbol whose code alone exceeds 32 bits must flow through overflow.
  const auto freq = data::exponential_histogram(40, 2.0, 11);
  const Codebook cb = build_codebook_serial(freq);
  unsigned max_len = cb.max_len;
  ASSERT_GT(max_len, 32u);
  // Find a symbol with a >32-bit code.
  u16 deep = 0;
  for (u32 s = 0; s < 40; ++s) {
    if (cb.cw[s].len > 32) {
      deep = static_cast<u16>(s);
      break;
    }
  }
  std::vector<u16> input(512, static_cast<u16>(39));  // shortest code
  input[100] = deep;
  ReduceShuffleStats stats;
  const EncodedStream enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{8, 2}, nullptr, &stats);
  EXPECT_GE(stats.breaking_groups, 1u);
  EXPECT_EQ(decode_stream<u16>(enc, cb, 1), input);
}

TEST(ReduceShuffle, BreakingFractionMatchesStats) {
  const auto freq = data::exponential_histogram(24, 2.1, 5);
  Xoshiro256 rng(9);
  std::vector<u16> input(8192);
  for (auto& d : input) d = static_cast<u16>(rng.below(24));
  const auto h = hist16(input, 24);
  const Codebook cb = build_codebook_serial(h);
  ReduceShuffleStats stats;
  const EncodedStream enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, 3}, nullptr, &stats);
  u64 from_entries = 0;
  for (const auto& e : enc.overflow) from_entries += e.n_symbols;
  EXPECT_EQ(from_entries, stats.breaking_symbols);
  EXPECT_DOUBLE_EQ(enc.breaking_fraction(),
                   static_cast<double>(from_entries) / 8192.0);
}

TEST(ReduceShuffle, InvalidConfigThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  const std::vector<u16> input = {0, 1};
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{13, 3}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{10, 11}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)encode_reduceshuffle_simt<u16>(
                   input, cb, ReduceShuffleConfig{10, 0}, nullptr, nullptr),
               std::invalid_argument);
}

TEST(ReduceShuffle, TallyShowsCoalescedTraffic) {
  const auto quant = data::generate_nyx_quant(65536, 4);
  const auto freq = hist16(quant, 1024);
  const Codebook cb = build_codebook_serial(freq);
  simt::MemTally tally;
  (void)encode_reduceshuffle_simt<u16>(quant, cb, ReduceShuffleConfig{10, 3},
                                       &tally, nullptr);
  // Global traffic must be near the useful payload (the whole point of the
  // scheme): sectors * 32 within 2x of bytes read+written.
  const u64 useful = tally.global_read_bytes + tally.global_write_bytes;
  const u64 sector_bytes =
      (tally.global_read_sectors + tally.global_write_sectors) * 32;
  EXPECT_LT(sector_bytes, 2 * useful);
  EXPECT_GT(tally.shared_bytes, 0u);
  EXPECT_EQ(tally.kernel_launches, 2u);
}

}  // namespace
}  // namespace parhuff
