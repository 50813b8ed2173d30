// Decoder robustness and container format round trips / tamper rejection.
#include <gtest/gtest.h>

#include <vector>

#include "core/decode.hpp"
#include "core/encode_serial.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

TEST(Decode, CorruptStreamThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  // A stream of all-ones longer than any valid code path: 111 decodes to
  // symbol 3, so feed a stream that ends mid-codeword instead.
  std::vector<word_t> words = {0xC0000000u};  // "11" then exhausted
  BitReader br(words, 2);
  u8 out[4];
  EXPECT_THROW(decode_symbols<u8>(br, cb, 1, out), std::runtime_error);
}

TEST(Decode, TruncatedChunkThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  const std::vector<u8> input = {3, 3, 3, 3};
  EncodedStream enc = encode_serial<u8>(input, cb, 1024);
  enc.chunk_bits[0] -= 2;  // truncate
  EXPECT_THROW((void)decode_stream<u8>(enc, cb, 1), std::runtime_error);
}

TEST(Decode, ForgedReduceFactorThrows) {
  // Overflow groups splice back in at reduce-group boundaries. A stored
  // factor with no groups (0), or one too large to shift, must be rejected
  // instead of dividing by zero or shifting out of range.
  const auto input = data::generate_nyx_quant(50000, 3);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.reduce_factor = 6;
  const auto blob = compress<u16>(input, cfg);
  ASSERT_GT(blob.stream.overflow.size(), 0u);
  for (const u32 r : {0u, 40u, 64u, 0x7FFFFFFFu}) {
    SCOPED_TRACE(r);
    EncodedStream s = blob.stream;
    s.chunk_reduce.clear();
    s.reduce_factor = r;
    EXPECT_THROW((void)decode_stream<u16>(s, blob.codebook, 1),
                 std::runtime_error);
  }
}

TEST(Format, RoundTripByteData) {
  const auto input = data::generate_text(200000, 8);
  PipelineConfig cfg;
  cfg.nbins = 256;
  const auto blob = compress<u8>(input, cfg);
  const auto bytes = serialize(blob);
  const auto blob2 = deserialize<u8>(bytes);
  EXPECT_EQ(decompress(blob2, 2), input);
}

TEST(Format, RoundTripMultiByteWithOverflow) {
  // Force breaking via a deliberately large reduce factor.
  const auto input = data::generate_nyx_quant(50000, 3);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.magnitude = 10;
  cfg.reduce_factor = 6;  // 64 symbols/group → guaranteed breaking
  PipelineReport rep;
  const auto blob = compress<u16>(input, cfg, &rep);
  EXPECT_GT(blob.stream.overflow.size(), 0u);
  const auto bytes = serialize(blob);
  const auto blob2 = deserialize<u16>(bytes);
  EXPECT_EQ(decompress(blob2, 2), input);
}

TEST(Format, RejectsBadMagic) {
  const auto input = data::generate_text(1000, 1);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  bytes[0] = 'X';
  EXPECT_THROW((void)deserialize<u8>(bytes), std::runtime_error);
}

TEST(Format, RejectsSymbolWidthMismatch) {
  const auto input = data::generate_text(1000, 1);
  PipelineConfig cfg;
  const auto bytes = serialize(compress<u8>(input, cfg));
  EXPECT_THROW((void)deserialize<u16>(bytes), std::runtime_error);
}

TEST(Format, RejectsTruncation) {
  const auto input = data::generate_text(5000, 2);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{10}}) {
    std::vector<u8> t(bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)deserialize<u8>(t), std::runtime_error) << cut;
  }
}

TEST(Format, RejectsTrailingGarbage) {
  const auto input = data::generate_text(1000, 4);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  bytes.push_back(0);
  EXPECT_THROW((void)deserialize<u8>(bytes), std::runtime_error);
}

TEST(Format, RejectsCorruptLengths) {
  const auto input = data::generate_text(1000, 5);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  // The lengths array starts at offset 10 (magic, symbol width, max_len,
  // nbins); zeroing the entry of a symbol that is certainly present ('e')
  // breaks Kraft completeness.
  bytes[10 + 'e'] = 0;
  EXPECT_ANY_THROW((void)deserialize<u8>(bytes));
}

TEST(DecodeRange, SlicesMatchFullDecode) {
  const auto input = data::generate_nyx_quant(50000, 12);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  const auto blob = compress<u16>(input, cfg);
  const auto& s = blob.stream;
  const auto& cb = blob.codebook;
  struct Range {
    std::size_t first, count;
  };
  for (const Range r : {Range{0, 50000}, Range{0, 1}, Range{49999, 1},
                        Range{1000, 1024}, Range{1023, 2}, Range{512, 3000},
                        Range{12345, 6789}, Range{0, 0}, Range{50000, 0}}) {
    const auto slice = decode_range<u16>(s, cb, r.first, r.count, 1);
    ASSERT_EQ(slice.size(), r.count);
    for (std::size_t i = 0; i < r.count; ++i) {
      ASSERT_EQ(slice[i], input[r.first + i])
          << "first=" << r.first << " count=" << r.count << " i=" << i;
    }
  }
}

TEST(DecodeRange, WorksAcrossOverflowGroups) {
  const auto input = data::generate_nyx_quant(30000, 13);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.reduce_factor = 6;  // force breaking
  const auto blob = compress<u16>(input, cfg);
  ASSERT_GT(blob.stream.overflow.size(), 0u);
  const auto slice = decode_range<u16>(blob.stream, blob.codebook, 7000,
                                       9000, 2);
  for (std::size_t i = 0; i < 9000; ++i) {
    ASSERT_EQ(slice[i], input[7000 + i]);
  }
}

TEST(DecodeRange, RejectsOutOfRange) {
  const std::vector<u8> input = {0, 1, 0, 1};
  PipelineConfig cfg;
  cfg.nbins = 2;
  const auto blob = compress<u8>(input, cfg);
  EXPECT_THROW(
      (void)decode_range<u8>(blob.stream, blob.codebook, 3, 2, 1),
      std::out_of_range);
  EXPECT_THROW((void)decode_range<u8>(blob.stream, blob.codebook,
                                      static_cast<std::size_t>(-1), 2, 1),
               std::out_of_range);
}

TEST(Format, ChecksumCatchesPayloadFlips) {
  const auto input = data::generate_text(50000, 21);
  PipelineConfig cfg;
  cfg.nbins = 256;
  auto bytes = serialize(compress<u8>(input, cfg));
  // Flip one bit somewhere in the back half (payload region): the stream
  // checksum must reject it even when the structure still parses.
  Xoshiro256 rng(3);
  int rejected = 0;
  for (int trial = 0; trial < 16; ++trial) {
    auto bad = bytes;
    const std::size_t pos =
        bytes.size() / 2 + rng.below(bytes.size() / 2 - 16);
    bad[pos] ^= static_cast<u8>(1u << rng.below(8));
    try {
      (void)deserialize<u8>(bad);
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 16);
}

TEST(Format, FileRoundTrip) {
  const auto input = data::generate_text(30000, 6);
  PipelineConfig cfg;
  const auto bytes = serialize(compress<u8>(input, cfg));
  const std::string path = "/tmp/parhuff_test_container.phf";
  write_file(path, bytes);
  const auto read = read_file(path);
  EXPECT_EQ(read, bytes);
  EXPECT_EQ(decompress(deserialize<u8>(read), 2), input);
}

}  // namespace
}  // namespace parhuff
