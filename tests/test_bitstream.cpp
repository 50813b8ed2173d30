// Unit tests for the MSB-first bitstream primitives every encoder builds on.
#include <gtest/gtest.h>

#include <vector>

#include "core/bitstream.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

TEST(BitWriter, EmptyProducesNothing) {
  BitWriter bw;
  EXPECT_EQ(bw.bits(), 0u);
  EXPECT_TRUE(bw.finish().empty());
}

TEST(BitWriter, SingleBitLandsInMsb) {
  BitWriter bw;
  bw.put(1, 1);
  auto words = bw.finish();
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x80000000u);
}

TEST(BitWriter, ZeroLengthPutIsNoop) {
  BitWriter bw;
  bw.put(0xFFFF, 0);
  EXPECT_EQ(bw.bits(), 0u);
}

TEST(BitWriter, PacksAcrossWordBoundary) {
  BitWriter bw;
  bw.put(0x3FFFFFFF, 30);  // 30 ones
  bw.put(0x0, 2);
  bw.put(0xF, 4);          // crosses into word 2
  auto words = bw.finish();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], 0xFFFFFFFCu);
  EXPECT_EQ(words[1], 0xF0000000u);
  // bits() counts before finish resets
}

TEST(BitWriter, MasksHighBitsOfValue) {
  BitWriter bw;
  bw.put(0xFF, 4);  // only low 4 bits (0xF) should be written
  auto words = bw.finish();
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0xF0000000u);
}

TEST(BitRoundTrip, RandomPieces) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter bw;
    std::vector<std::pair<u64, unsigned>> pieces;
    for (int i = 0; i < 200; ++i) {
      const unsigned len = 1 + static_cast<unsigned>(rng.below(57));
      const u64 v = rng.next() & ((u64{1} << len) - 1);
      pieces.emplace_back(v, len);
      bw.put(v, len);
    }
    const u64 total = bw.bits();
    auto words = bw.finish();
    BitReader br(words, total);
    for (const auto& [v, len] : pieces) {
      EXPECT_EQ(br.take(len), v);
    }
    EXPECT_TRUE(br.exhausted());
  }
}

TEST(BitReader, SeekRepositions) {
  BitWriter bw;
  bw.put(0b1010, 4);
  bw.put(0b1100, 4);
  auto words = bw.finish();
  BitReader br(words, 8);
  EXPECT_EQ(br.take(4), 0b1010u);
  br.seek(4);
  EXPECT_EQ(br.take(4), 0b1100u);
  br.seek(0);
  EXPECT_EQ(br.take(8), 0b10101100u);
}

TEST(WordsForBits, Boundaries) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(32), 1u);
  EXPECT_EQ(words_for_bits(33), 2u);
  EXPECT_EQ(words_for_bits(64), 2u);
}

TEST(AppendBits, AlignedCopy) {
  std::vector<word_t> dst(4, 0);
  const std::vector<word_t> src = {0xDEADBEEF, 0xCAFE0000};
  append_bits(dst.data(), 0, src.data(), 48);
  EXPECT_EQ(dst[0], 0xDEADBEEFu);
  EXPECT_EQ(dst[1], 0xCAFE0000u);
}

TEST(AppendBits, UnalignedResidualFill) {
  // dst holds 4 bits (0b1111); append 8 bits 0xAB.
  std::vector<word_t> dst(2, 0);
  dst[0] = 0xF0000000u;
  const std::vector<word_t> src = {0xAB000000u};
  append_bits(dst.data(), 4, src.data(), 8);
  EXPECT_EQ(dst[0], 0xFAB00000u);
  EXPECT_EQ(dst[1], 0u);
}

TEST(AppendBits, SpillsIntoNextCell) {
  // dst holds 28 bits of ones; append 8 bits 0xAB: 4 bits fill the
  // residual, 4 spill.
  std::vector<word_t> dst(2, 0);
  dst[0] = 0xFFFFFFF0u;
  const std::vector<word_t> src = {0xAB000000u};
  append_bits(dst.data(), 28, src.data(), 8);
  EXPECT_EQ(dst[0], 0xFFFFFFFAu);
  EXPECT_EQ(dst[1], 0xB0000000u);
}

TEST(AppendBits, EquivalentToBitWriterConcatenation) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Build two random bit strings with the writer, concatenate with
    // append_bits, compare against writing both into one stream.
    const unsigned la = 1 + static_cast<unsigned>(rng.below(120));
    const unsigned lb = 1 + static_cast<unsigned>(rng.below(120));
    BitWriter wa, wb, wall;
    u64 bits_a = 0, bits_b = 0;
    for (unsigned done = 0; done < la;) {
      const unsigned len = std::min(la - done, 1 + static_cast<unsigned>(
                                                       rng.below(30)));
      const u64 v = rng.next() & ((u64{1} << len) - 1);
      wa.put(v, len);
      wall.put(v, len);
      done += len;
      bits_a += len;
    }
    for (unsigned done = 0; done < lb;) {
      const unsigned len = std::min(lb - done, 1 + static_cast<unsigned>(
                                                       rng.below(30)));
      const u64 v = rng.next() & ((u64{1} << len) - 1);
      wb.put(v, len);
      wall.put(v, len);
      done += len;
      bits_b += len;
    }
    auto a = wa.finish();
    auto b = wb.finish();
    auto expect = wall.finish();
    std::vector<word_t> dst(words_for_bits(bits_a + bits_b) + 1, 0);
    std::copy(a.begin(), a.end(), dst.begin());
    append_bits(dst.data(), bits_a, b.data(), bits_b);
    for (std::size_t w = 0; w < words_for_bits(bits_a + bits_b); ++w) {
      ASSERT_EQ(dst[w], expect[w]) << "trial " << trial << " word " << w;
    }
  }
}

// --- Hardened bounds (enforced in release builds, not assert-only). ----------

TEST(BitReaderBounds, ConstructorRejectsBitCountBeyondSpan) {
  const std::vector<word_t> words = {0xDEADBEEFu, 0x12345678u};
  EXPECT_NO_THROW(BitReader(words, 64));
  EXPECT_THROW(BitReader(words, 65), std::out_of_range);
  // The words_for_bits() wrap route: a near-2^64 bit count maps to 0
  // cells, so an empty span must not be able to claim any bits.
  EXPECT_THROW(BitReader({}, ~u64{0} - 14), std::out_of_range);
  EXPECT_THROW(BitReader({}, 1), std::out_of_range);
  EXPECT_NO_THROW(BitReader({}, 0));
}

TEST(BitReaderBounds, BitPastEndThrowsInsteadOfReadingOob) {
  const std::vector<word_t> words = {0x80000000u};
  BitReader br(words, 3);
  EXPECT_EQ(br.bit(), 1u);
  EXPECT_EQ(br.bit(), 0u);
  EXPECT_EQ(br.bit(), 0u);
  EXPECT_TRUE(br.exhausted());
  EXPECT_THROW((void)br.bit(), std::out_of_range);
}

TEST(BitReaderBounds, SkipAndSeekPastEndThrow) {
  const std::vector<word_t> words = {0, 0};
  BitReader br(words, 40);
  EXPECT_NO_THROW(br.skip(40));
  EXPECT_THROW(br.skip(1), std::out_of_range);
  EXPECT_NO_THROW(br.seek(40));
  EXPECT_THROW(br.seek(41), std::out_of_range);
  // skip() with a huge count must not wrap pos_ + n.
  br.seek(8);
  EXPECT_THROW(br.skip(~u64{0} - 4), std::out_of_range);
  EXPECT_EQ(br.position(), 8u);  // failed skip leaves the cursor alone
}

TEST(BitReaderBounds, PeekStaysSafeAtTail) {
  const std::vector<word_t> words = {0xFFFFFFFFu};
  BitReader br(words, 4);
  br.skip(2);
  // Past-the-end bits read as zero; no throw, no OOB.
  EXPECT_EQ(br.peek(8), 0xC0u);
  EXPECT_EQ(br.position(), 2u);
}

TEST(BitReaderBounds, CellReadsZeroPastSpan) {
  const std::vector<word_t> words = {0xDEADBEEFu, 0x12345678u};
  const BitReader br(words, 40);
  EXPECT_EQ(br.cell(0), 0xDEADBEEFu);
  // Bits past total_bits() inside the span come back as stored.
  EXPECT_EQ(br.cell(1), 0x12345678u);
  EXPECT_EQ(br.cell(2), 0u);
  EXPECT_EQ(br.cell(~std::size_t{0}), 0u);
}

// --- peek(): the look-ahead window. ------------------------------------------

TEST(BitReaderPeek, MatchesTake) {
  Xoshiro256 rng(3);
  BitWriter bw;
  for (int i = 0; i < 100; ++i) bw.put(rng.next() & 0x7FFF, 15);
  const u64 total = bw.bits();
  const auto words = bw.finish();
  BitReader br(words, total);
  while (br.remaining() >= 9) {
    const u64 peeked = br.peek(9);
    EXPECT_EQ(br.take(9), peeked);
  }
}

TEST(BitReaderPeek, ZeroPadsBeyondEnd) {
  BitWriter bw;
  bw.put(0b101, 3);
  const auto words = bw.finish();
  BitReader br(words, 3);
  EXPECT_EQ(br.peek(8), 0b10100000u);
  br.skip(2);
  EXPECT_EQ(br.peek(4), 0b1000u);
  EXPECT_EQ(br.remaining(), 1u);
}

}  // namespace
}  // namespace parhuff
