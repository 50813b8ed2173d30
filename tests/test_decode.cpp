// The shared decode walk and the tiers built on it.
//
//  * DecodeWalk: the table walk against a brute-force codeword-matching
//    reference and against the bit-serial walk, including deep books whose
//    codes outgrow the table, streams cut mid-codeword (the tail rule), and
//    corrupted payloads (identical accept/reject and output).
//  * DecodeTiers: a cross-tier differential — host, random-access range,
//    SIMT, self-sync and gap-array decode must all reproduce the input byte
//    for byte on every tests/proptest.hpp family and on the bulk stand-ins
//    encoded with overflow groups, and on the output of all six encoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_serial.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "proptest.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

// --- The walk. ---------------------------------------------------------------

/// Reference decoder: longest-prefix match against the raw (code, len)
/// pairs, independent of First/Entry. O(n * H) — test-only.
template <typename Sym>
void reference_decode(const EncodedStream& s, const Codebook& cb,
                      std::vector<Sym>& out) {
  std::map<std::pair<u64, unsigned>, u32> by_code;
  for (u32 sym = 0; sym < cb.nbins; ++sym) {
    if (cb.cw[sym].len) {
      by_code[{cb.cw[sym].bits, cb.cw[sym].len}] = sym;
    }
  }
  out.clear();
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    BitReader br = s.chunk_reader(c);
    for (std::size_t i = 0; i < s.chunk_size(c); ++i) {
      u64 v = 0;
      unsigned l = 0;
      for (;;) {
        v = (v << 1) | br.bit();
        ++l;
        const auto it = by_code.find({v, l});
        if (it != by_code.end()) {
          out.push_back(static_cast<Sym>(it->second));
          break;
        }
        ASSERT_LE(l, cb.max_len) << "no codeword matched";
      }
    }
  }
}

/// Every chunk through decode_bitserial (the walk's reference).
template <typename Sym>
std::vector<Sym> bitserial_decode(const EncodedStream& s, const Codebook& cb) {
  std::vector<Sym> out(s.n_symbols);
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    BitReader br = s.chunk_reader(c);
    decode_bitserial(br, cb, s.chunk_size(c),
                     out.data() + c * s.chunk_symbols);
  }
  return out;
}

/// Symbols drawn uniformly over an exponential book's alphabet, so its
/// longest codes are as common as its shortest.
std::vector<u16> uniform_symbols(std::size_t n, std::size_t nbins, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u16> input(n);
  for (auto& s : input) s = static_cast<u16>(rng.below(nbins));
  return input;
}

TEST(DecodeWalk, KnownSmallCode) {
  // lens {1,2,3,3}: codes 0, 10, 110, 111.
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  const std::vector<u8> input = {0, 3, 1, 2, 0, 0, 3};
  const auto enc = encode_serial<u8>(input, cb, 1024);
  EXPECT_EQ(decode_stream<u8>(enc, cb, 1), input);
  EXPECT_EQ(bitserial_decode<u8>(enc, cb), input);
}

TEST(DecodeWalk, TableIsClampedToMaxLen) {
  const Codebook flat = canonize_from_lengths(std::vector<u8>{2, 2, 2, 2});
  const DecodeLut small(flat);
  EXPECT_EQ(small.k, 2u);
  EXPECT_EQ(small.slots.size(), 4u);
  EXPECT_EQ(small.slots[0b10], (u32{2} << 8) | 2u);

  const Codebook deep =
      build_codebook_serial(data::exponential_histogram(40, 2.0, 1));
  ASSERT_GT(deep.max_len, DecodeLut::kMaxBits);
  const DecodeLut lut(deep);
  EXPECT_EQ(lut.k, DecodeLut::kMaxBits);
  EXPECT_EQ(lut.slots.size(), std::size_t{1} << DecodeLut::kMaxBits);
}

TEST(DecodeWalk, ReferenceDecoderAgreesOnRandomAlphabets) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t nbins = 2 + rng.below(300);
    std::vector<u16> input(5000);
    for (auto& s : input) s = static_cast<u16>(rng.below(nbins));
    const auto freq = histogram_serial<u16>(input, nbins);
    const Codebook cb = build_codebook_serial(freq);
    const auto enc = encode_serial<u16>(input, cb, 512);
    std::vector<u16> ref;
    {
      SCOPED_TRACE(trial);
      reference_decode<u16>(enc, cb, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(ref, input);
    EXPECT_EQ(decode_stream<u16>(enc, cb, 1), input);
  }
}

/// Chunk sizes from a few symbols (one window holds the whole chunk) up.
class DecodeWalkChunks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecodeWalkChunks, AgreesWithBitSerialAndReference) {
  const auto input = data::generate_text(120000, 7);
  const auto freq = histogram_serial<u8>(input, 256);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u8>(input, cb, GetParam());

  EXPECT_EQ(decode_stream<u8>(enc, cb, 1), input);
  EXPECT_EQ(bitserial_decode<u8>(enc, cb), input);
  std::vector<u8> ref;
  reference_decode<u8>(enc, cb, ref);
  EXPECT_EQ(ref, input);
}

INSTANTIATE_TEST_SUITE_P(ChunkSymbols, DecodeWalkChunks,
                         ::testing::Values(3u, 16u, 256u, 2048u, 65536u));

TEST(DecodeWalk, DeepCodesTakeTheLongCodePath) {
  // 30 bins: codes up to 29 bits, past k but inside one refilled window.
  // 40 bins: codes up to 39 bits, some longer than the window holds, which
  // drop to the bit-serial walk for that symbol.
  for (const std::size_t nbins : {30u, 40u}) {
    SCOPED_TRACE(nbins);
    const auto freq = data::exponential_histogram(nbins, 2.0, 1);
    const Codebook cb = build_codebook_serial(freq);
    ASSERT_GT(cb.max_len, DecodeLut::kMaxBits);
    const auto input = uniform_symbols(20000, nbins, 2);
    const auto enc = encode_serial<u16>(input, cb, 1024);
    EXPECT_EQ(decode_stream<u16>(enc, cb, 1), input);
    std::vector<u16> ref;
    reference_decode<u16>(enc, cb, ref);
    EXPECT_EQ(ref, input);
  }
}

/// `bits` with everything at and past bit `cut` cleared and the span cut
/// to the cells that still hold stream bits: the zero-padded tail.
std::vector<word_t> zero_tail(const std::vector<word_t>& bits, u64 cut) {
  std::vector<word_t> out(bits.begin(),
                          bits.begin() + static_cast<std::ptrdiff_t>(
                                             words_for_bits(cut)));
  if (cut % kWordBits != 0) {
    out.back() &= ~word_t{0} << (kWordBits - cut % kWordBits);
  }
  return out;
}

TEST(DecodeWalk, StreamCutMidCodewordNeverEmitsAPhantomSymbol) {
  // Codes 0, 10, 110, 111: 31 zeros put the final "111" across a cell
  // boundary, so a cut after its first bit leaves a window of "1" + zero
  // padding, which reads as the shorter code "10".
  {
    const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
    std::vector<u8> input(31, 0);
    input.push_back(3);
    EncodedStream enc = encode_serial<u8>(input, cb, 1024);
    ASSERT_EQ(enc.chunk_bits[0], 34u);
    enc.chunk_bits[0] = 32;
    EXPECT_THROW((void)decode_stream<u8>(enc, cb, 1), std::runtime_error);
  }

  // Every cut inside the last codeword, with the stored bits still in the
  // cell and with a zero-padded tail, over a shallow and a deep book.
  struct Book {
    Codebook cb;
    std::size_t nbins;
  };
  const std::vector<Book> books = {
      {build_codebook_serial(histogram_serial<u8>(
           data::generate_text(20000, 3), 256)),
       256},
      {build_codebook_serial(data::exponential_histogram(40, 2.0, 1)), 40},
  };
  constexpr u16 kSentinel = 0xFFFF;
  for (const Book& book : books) {
    const DecodeLut lut(book.cb);
    Xoshiro256 rng(5);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<u16> input(1 + rng.below(200));
      for (auto& s : input) {
        do {
          s = static_cast<u16>(rng.below(book.nbins));
        } while (book.cb.cw[s].len == 0);
      }
      BitWriter bw;
      for (const u16 s : input) bw.put(book.cb.cw[s].bits, book.cb.cw[s].len);
      const u64 end = bw.bits();
      const auto words = bw.finish();
      const unsigned last = book.cb.cw[input.back()].len;
      for (u64 cut = end - last + 1; cut < end; ++cut) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " cut " << cut << "/" << end);
        for (const bool zero_padded : {false, true}) {
          const std::vector<word_t> cells =
              zero_padded ? zero_tail(words, cut) : words;
          BitReader br(cells, cut);
          std::vector<u16> out(input.size(), kSentinel);
          EXPECT_THROW(decode_symbols(br, lut, input.size(), out.data()),
                       std::runtime_error);
          EXPECT_EQ(out.back(), kSentinel);
          EXPECT_TRUE(std::equal(input.begin(), input.end() - 1, out.begin()));
        }
      }
    }
  }
}

TEST(DecodeWalk, CorruptStreamsMatchTheBitSerialWalk) {
  // Bit flips and truncations: the walk must reject exactly the chunks the
  // bit-serial walk rejects, and otherwise emit the same symbols and stop
  // at the same bit.
  const Codebook text_cb = build_codebook_serial(
      histogram_serial<u8>(data::generate_text(50000, 9), 256));
  const Codebook deep_cb =
      build_codebook_serial(data::exponential_histogram(40, 2.0, 1));
  Xoshiro256 rng(17);
  std::size_t rejected = 0, accepted = 0;
  for (const Codebook* cb : {&text_cb, &deep_cb}) {
    const DecodeLut lut(*cb);
    std::vector<u16> input(8000);
    for (auto& s : input) {
      do {
        s = static_cast<u16>(rng.below(cb->nbins));
      } while (cb->cw[s].len == 0);
    }
    const EncodedStream clean = encode_serial<u16>(input, *cb, 256);
    for (int trial = 0; trial < 60; ++trial) {
      EncodedStream s = clean;
      const u64 bits = static_cast<u64>(s.payload.size()) * kWordBits;
      for (u64 f = 1 + rng.below(4); f-- > 0;) {
        const u64 b = rng.below(bits);
        s.payload[b / kWordBits] ^= word_t{1} << (kWordBits - 1 - b % kWordBits);
      }
      const std::size_t c = rng.below(s.chunks());
      if (trial % 3 == 0 && s.chunk_bits[c] > 0) {
        s.chunk_bits[c] -= 1 + rng.below(std::min<u64>(s.chunk_bits[c], 40));
      }
      const std::size_t n = s.chunk_size(c);
      std::vector<u16> want(n), got(n);
      BitReader ref_br = s.chunk_reader(c);
      BitReader br = s.chunk_reader(c);
      bool ref_threw = false, threw = false;
      try {
        decode_bitserial(ref_br, *cb, n, want.data());
      } catch (const std::runtime_error&) {
        ref_threw = true;
      }
      try {
        decode_symbols(br, lut, n, got.data());
      } catch (const std::runtime_error&) {
        threw = true;
      }
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " chunk " << c);
      ASSERT_EQ(threw, ref_threw);
      if (threw) {
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(got, want);
      EXPECT_EQ(br.position(), ref_br.position());
    }
  }
  // Both outcomes occur, so the parity is not vacuous.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

// --- Cross-tier differential. --------------------------------------------------

/// Runs every decode tier over `blob` and names the first one that does not
/// reproduce `input` byte for byte.
template <typename Sym>
std::optional<std::string> tier_mismatch(const std::vector<Sym>& input,
                                         const Compressed<Sym>& blob,
                                         u64 seed) {
  const EncodedStream& s = blob.stream;
  const Codebook& cb = blob.codebook;
  const auto fail = [](const std::string& tier) {
    return std::optional<std::string>("tier " + tier + " differs");
  };
  if (decode_stream<Sym>(s, cb, 1) != input) return fail("host/1 thread");
  if (decode_stream<Sym>(s, cb, 0) != input) return fail("host/team");
  Xoshiro256 rng(seed);
  for (int k = 0; k < 4 && !input.empty(); ++k) {
    const std::size_t first = rng.below(input.size());
    const std::size_t count = rng.below(input.size() - first + 1);
    const std::vector<Sym> slice(
        input.begin() + static_cast<std::ptrdiff_t>(first),
        input.begin() + static_cast<std::ptrdiff_t>(first + count));
    if (decode_range<Sym>(s, cb, first, count, 1) != slice) {
      std::ostringstream m;
      m << "range [" << first << ", +" << count << ")";
      return fail(m.str());
    }
  }
  if (decode_simt<Sym>(s, cb) != input) return fail("simt");
  const u32 subseq = std::max<u32>(256, 2 * std::max(cb.max_len, 1u));
  if (decode_selfsync<Sym>(s, cb, SelfSyncConfig{subseq}) != input) {
    return fail("selfsync");
  }
  EncodedStream gapped = s;
  annotate_gaps(gapped, cb, std::max<u32>(1024, subseq));
  if (decode_gaparray<Sym>(gapped, cb) != input) return fail("gaparray");
  return std::nullopt;
}

template <typename Sym>
void expect_tiers_agree(const std::vector<Sym>& input,
                        const PipelineConfig& cfg, u64 seed) {
  const Compressed<Sym> blob =
      compress<Sym>(std::span<const Sym>(input), cfg);
  const std::optional<std::string> bad = tier_mismatch(input, blob, seed);
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(DecodeTiers, FieldFamilies) {
  using proptest::FieldKind;
  for (const FieldKind kind :
       {FieldKind::kSmooth, FieldKind::kTurbulent, FieldKind::kConstant,
        FieldKind::kDenormal, FieldKind::kSpiky}) {
    const auto failure = proptest::find_field_failure(
        kind, 6,
        [](const std::vector<float>& field, data::Dims dims,
           const proptest::CaseId& id) -> std::optional<std::string> {
          const data::Quantized q = data::lorenzo_quantize(field, dims, 1e-3);
          PipelineConfig cfg;
          cfg.nbins = q.nbins;
          const Compressed<u16> blob =
              compress<u16>(std::span<const u16>(q.codes), cfg);
          return tier_mismatch(q.codes, blob, id.seed);
        });
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(DecodeTiers, ByteFamily) {
  for (u64 idx = 0; idx < 12; ++idx) {
    const u64 seed = proptest::case_seed(0xb17e5ull, idx);
    Xoshiro256 rng(seed);
    const std::vector<u8> input = proptest::make_bytes(rng, 20000);
    if (input.empty()) continue;
    SCOPED_TRACE(::testing::Message() << "case " << idx);
    expect_tiers_agree(input, PipelineConfig{}, seed);
  }
}

TEST(DecodeTiers, DriftFamilies) {
  using proptest::DriftKind;
  for (const DriftKind kind :
       {DriftKind::kGradual, DriftKind::kAbrupt, DriftKind::kPeriodic}) {
    proptest::DriftSpec spec;
    spec.kind = kind;
    spec.batches = 8;
    spec.log2_batch_symbols = 12;
    const proptest::DriftSource src(
        spec, proptest::case_seed(0xd21f7000ull, static_cast<u64>(kind)));
    for (const std::size_t t : {std::size_t{0}, spec.batches - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << proptest::drift_kind_name(kind) << " batch " << t);
      PipelineConfig cfg;
      cfg.nbins = spec.nbins;
      expect_tiers_agree(src.batch<u16>(t), cfg, src.seed() + t);
    }
  }
}

TEST(DecodeTiers, BulkStandInsWithOverflowGroups) {
  for (const char* name : {"ENWIK8", "NCI", "NYX-QUANT"}) {
    const auto ds = data::generate(name, 96 * KiB, 4);
    for (const u32 r : {2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << name << " r=" << r);
      PipelineConfig cfg;
      cfg.nbins = ds.info.nbins;
      cfg.reduce_factor = r;
      if (ds.syms16.empty()) {
        expect_tiers_agree(ds.bytes8, cfg, r);
      } else {
        expect_tiers_agree(ds.syms16, cfg, r);
      }
    }
  }
  // The stand-ins must actually exercise the overflow splice.
  const auto enwik = data::generate("ENWIK8", 96 * KiB, 4);
  PipelineConfig cfg;
  cfg.reduce_factor = 3;
  const auto blob = compress<u8>(std::span<const u8>(enwik.bytes8), cfg);
  EXPECT_GT(blob.stream.overflow.size(), 0u);
}

TEST(DecodeTiers, EveryEncoder) {
  const auto text = data::generate("ENWIK8", 48 * KiB, 6);
  const auto quant = data::generate("NYX-QUANT", 48 * KiB, 6);
  for (const EncoderKind enc :
       {EncoderKind::kSerial, EncoderKind::kOpenMP, EncoderKind::kCoarseSimt,
        EncoderKind::kPrefixSumSimt, EncoderKind::kReduceShuffleSimt,
        EncoderKind::kAdaptiveSimt}) {
    SCOPED_TRACE(::testing::Message() << "encoder " << static_cast<int>(enc));
    PipelineConfig cfg;
    cfg.encoder = enc;
    cfg.nbins = text.info.nbins;
    expect_tiers_agree(text.bytes8, cfg, 6);
    cfg.nbins = quant.info.nbins;
    expect_tiers_agree(quant.syms16, cfg, 6);
  }
}

TEST(DecodeTiers, LongCodeBook) {
  // Geometric symbol frequencies: the book's longest codes outgrow k.
  Xoshiro256 rng(21);
  std::vector<u8> input(60000);
  for (auto& s : input) {
    s = static_cast<u8>(std::min(std::countr_zero(rng.next() | (u64{1} << 40)),
                                 40));
  }
  PipelineConfig cfg;
  const auto blob = compress<u8>(std::span<const u8>(input), cfg);
  ASSERT_GT(blob.codebook.max_len, DecodeLut::kMaxBits);
  const auto bad = tier_mismatch(input, blob, 21);
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(DecodeTiers, OneSymbolBook) {
  const std::vector<u8> input(5000, 7);
  const auto blob = compress<u8>(std::span<const u8>(input), PipelineConfig{});
  ASSERT_EQ(blob.codebook.present_symbols(), 1u);
  const auto bad = tier_mismatch(input, blob, 7);
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(DecodeTiers, ChunksShorterThanOneWindow) {
  // 16-symbol chunks of ~5-bit text codes: each whole chunk, and so its
  // last codeword, ends within the final 64 bits the window covers.
  const auto input = data::generate_text(30000, 12);
  for (const u32 r : {2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "r=" << r);
    PipelineConfig cfg;
    cfg.magnitude = 4;
    cfg.reduce_factor = r;
    const auto blob = compress<u8>(std::span<const u8>(input), cfg);
    ASSERT_TRUE(std::any_of(blob.stream.chunk_bits.begin(),
                            blob.stream.chunk_bits.end(),
                            [](u64 b) { return b < 64; }));
    const auto bad = tier_mismatch(input, blob, r);
    EXPECT_FALSE(bad.has_value()) << *bad;
  }
}

}  // namespace
}  // namespace parhuff
