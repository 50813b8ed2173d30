// Cross-encoder equivalence: serial, OpenMP, coarse-SIMT and prefix-sum
// SIMT encoders must produce bit-identical chunked streams; all decode back
// to the input.
//
// EncoderDifferential runs all six pipeline encoders over every
// tests/proptest.hpp family: each must decode byte for byte, the baselines
// must match the serial stream bit for bit, and so must the REDUCE/SHUFFLE
// and adaptive streams whenever no group broke.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "obs/report.hpp"
#include "proptest.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

std::vector<u8> sample_data(const std::vector<u64>& freq, std::size_t n,
                            u64 seed) {
  // Draw symbols proportional to freq.
  std::vector<u32> cum;
  u64 total = 0;
  for (u64 f : freq) {
    total += f;
    cum.push_back(static_cast<u32>(total));
  }
  Xoshiro256 rng(seed);
  std::vector<u8> data(n);
  for (auto& d : data) {
    const u32 x = static_cast<u32>(rng.below(total));
    const auto it = std::upper_bound(cum.begin(), cum.end(), x);
    d = static_cast<u8>(it - cum.begin());
  }
  return data;
}

std::vector<u64> histogram_from(const std::vector<u8>& data) {
  std::vector<u64> h(256, 0);
  for (u8 b : data) ++h[b];
  return h;
}

class EncoderEquivalence : public ::testing::TestWithParam<u32> {};

TEST_P(EncoderEquivalence, AllBaselinesBitIdentical) {
  const u32 chunk = GetParam();
  const auto freq = data::zipf_histogram(200, 1.1, 1 << 20, 5);
  const auto input = sample_data(freq, 20000, 17);
  const auto hist = histogram_from(input);
  const Codebook cb = build_codebook_serial(hist);

  const EncodedStream a = encode_serial<u8>(input, cb, chunk);
  const EncodedStream b = encode_openmp<u8>(input, cb, chunk, 2);
  simt::MemTally t1, t2;
  const EncodedStream c = encode_coarse_simt<u8>(input, cb, chunk, &t1);
  const EncodedStream d = encode_prefixsum_simt<u8>(input, cb, chunk, &t2);

  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.payload, c.payload);
  EXPECT_EQ(a.payload, d.payload);
  EXPECT_EQ(a.chunk_bits, d.chunk_bits);
  EXPECT_GT(t1.global_read_sectors, 0u);
  EXPECT_GT(t2.global_atomics, 0u);

  const auto back = decode_stream<u8>(a, cb, 2);
  EXPECT_EQ(back, input);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, EncoderEquivalence,
                         ::testing::Values(64, 256, 1024, 4096, 100, 7777));

TEST(EncodeSerial, EmptyInput) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  const EncodedStream s = encode_serial<u8>(std::vector<u8>{}, cb, 64);
  EXPECT_EQ(s.chunks(), 0u);
  EXPECT_EQ(decode_stream<u8>(s, cb, 1).size(), 0u);
}

TEST(EncodeSerial, ThrowsOnAbsentSymbol) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1, 0});
  const std::vector<u8> bad = {0, 1, 2};
  EXPECT_THROW((void)encode_serial<u8>(bad, cb, 64), std::runtime_error);
}

TEST(EncodeSerial, SingleSymbolAlphabet) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1});
  const std::vector<u8> input(1000, 0);
  const EncodedStream s = encode_serial<u8>(input, cb, 128);
  EXPECT_EQ(s.total_payload_bits(), 1000u);
  EXPECT_EQ(decode_stream<u8>(s, cb, 1), input);
}

TEST(EncodeSerial, ChunkBitsMatchCodeLengths) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 2});
  const std::vector<u8> input = {0, 1, 2, 0};  // 1+2+2+1 = 6 bits
  const EncodedStream s = encode_serial<u8>(input, cb, 2);
  ASSERT_EQ(s.chunks(), 2u);
  EXPECT_EQ(s.chunk_bits[0], 3u);
  EXPECT_EQ(s.chunk_bits[1], 3u);
}

TEST(EncodeOpenmp, ThreadCountInvariance) {
  const auto freq = data::uniform_histogram(64, 500, 3);
  const auto input = sample_data(freq, 50000, 23);
  std::vector<u64> h(256, 0);
  for (u8 b : input) ++h[b];
  const Codebook cb = build_codebook_serial(h);
  const EncodedStream one = encode_openmp<u8>(input, cb, 512, 1);
  const EncodedStream two = encode_openmp<u8>(input, cb, 512, 2);
  const EncodedStream four = encode_openmp<u8>(input, cb, 512, 4);
  EXPECT_EQ(one.payload, two.payload);
  EXPECT_EQ(one.payload, four.payload);
}

// --- Differential over the proptest families. -------------------------------

/// How often the "no group broke" comparison actually ran, so the family
/// tests can show it is not vacuous.
struct DiffCounts {
  std::size_t unbroken = 0;  ///< grouped streams compared to serial
  std::size_t broken = 0;    ///< grouped streams with overflow groups
};

/// One pipeline encoder setting; `r` pins the REDUCE factor (r = 1 rarely
/// breaks, the default follows Fig. 3).
struct Variant {
  EncoderKind kind;
  std::optional<u32> r;
};

constexpr Variant kVariants[] = {
    {EncoderKind::kSerial, {}},         {EncoderKind::kOpenMP, {}},
    {EncoderKind::kCoarseSimt, {}},     {EncoderKind::kPrefixSumSimt, {}},
    {EncoderKind::kReduceShuffleSimt, {}}, {EncoderKind::kReduceShuffleSimt, 1},
    {EncoderKind::kAdaptiveSimt, {}},
};

/// Names the first encoder that disagrees with the input or the serial
/// stream, or std::nullopt when all agree.
template <typename Sym>
std::optional<std::string> encoder_mismatch(const std::vector<Sym>& input,
                                            std::size_t nbins,
                                            DiffCounts& counts) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.encoder = EncoderKind::kSerial;
  const auto serial = compress<Sym>(std::span<const Sym>(input), cfg);
  for (const Variant& v : kVariants) {
    cfg.encoder = v.kind;
    cfg.reduce_factor = v.r;
    const auto blob = compress<Sym>(std::span<const Sym>(input), cfg);
    std::ostringstream who;
    who << obs::kind_name(v.kind);
    if (v.r) who << " r=" << *v.r;
    const auto fail = [&](const char* what) {
      return std::optional<std::string>(who.str() + ": " + what);
    };
    if (blob.codebook.cw != serial.codebook.cw) return fail("codebook");
    if (decode_stream<Sym>(blob.stream, blob.codebook, 1) != input) {
      return fail("decode differs");
    }
    const bool grouped = v.kind == EncoderKind::kReduceShuffleSimt ||
                         v.kind == EncoderKind::kAdaptiveSimt;
    if (grouped && !blob.stream.overflow.empty()) {
      ++counts.broken;
      continue;
    }
    counts.unbroken += grouped ? 1 : 0;
    if (blob.stream.payload != serial.stream.payload ||
        blob.stream.chunk_bits != serial.stream.chunk_bits) {
      return fail("payload differs from serial");
    }
  }
  return std::nullopt;
}

TEST(EncoderDifferential, FieldFamilies) {
  using proptest::FieldKind;
  DiffCounts counts;
  for (const FieldKind kind :
       {FieldKind::kSmooth, FieldKind::kTurbulent, FieldKind::kConstant,
        FieldKind::kDenormal, FieldKind::kSpiky}) {
    const auto failure = proptest::find_field_failure(
        kind, 4,
        [&](const std::vector<float>& field, data::Dims dims,
            const proptest::CaseId&) -> std::optional<std::string> {
          const data::Quantized q = data::lorenzo_quantize(field, dims, 1e-3);
          return encoder_mismatch(q.codes, q.nbins, counts);
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
  EXPECT_GT(counts.unbroken, 0u);
}

TEST(EncoderDifferential, ByteFamily) {
  DiffCounts counts;
  for (u64 idx = 0; idx < 12; ++idx) {
    Xoshiro256 rng(proptest::case_seed(0xe4c0de5ull, idx));
    const std::vector<u8> input = proptest::make_bytes(rng, 20000);
    if (input.empty()) continue;
    const auto failure = encoder_mismatch(input, 256, counts);
    EXPECT_FALSE(failure.has_value()) << "case " << idx << ": " << *failure;
  }
  // Uniform-ish bytes (~8 bits) break at the default factor, never at r=1.
  EXPECT_GT(counts.unbroken, 0u);
  EXPECT_GT(counts.broken, 0u);
}

TEST(EncoderDifferential, DriftFamilies) {
  using proptest::DriftKind;
  DiffCounts counts;
  for (const DriftKind kind :
       {DriftKind::kGradual, DriftKind::kAbrupt, DriftKind::kPeriodic}) {
    proptest::DriftSpec spec;
    spec.kind = kind;
    spec.batches = 8;
    spec.log2_batch_symbols = 12;
    const proptest::DriftSource src(
        spec, proptest::case_seed(0xd1ff0000ull, static_cast<u64>(kind)));
    for (const std::size_t t : {std::size_t{0}, spec.batches - 1}) {
      const auto failure =
          encoder_mismatch(src.batch<u16>(t), spec.nbins, counts);
      EXPECT_FALSE(failure.has_value())
          << proptest::drift_kind_name(kind) << " batch " << t << ": "
          << *failure;
    }
  }
  EXPECT_GT(counts.unbroken, 0u);
}

}  // namespace
}  // namespace parhuff
