// Unit tests for the MSB-first bitstream primitives every encoder builds on.
#include <gtest/gtest.h>

#include <iterator>
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

// --- The accumulator against a bit-at-a-time reference. ---------------------

/// The plainest MSB-first packing: one bit at a time, a fresh zero cell
/// whenever the previous one is full.
struct ReferenceWriter {
  std::vector<word_t> words;
  u64 bits = 0;
  void put(u64 value, unsigned len) {
    for (unsigned i = len; i-- > 0;) {
      if (bits % kWordBits == 0) words.push_back(0);
      const unsigned at = kWordBits - 1 - static_cast<unsigned>(bits % kWordBits);
      words.back() |= static_cast<word_t>((value >> i) & 1) << at;
      ++bits;
    }
  }
};

/// Puts `pieces` into the reference, a BitWriter and a raw-pointer
/// BitPacker, and checks all three agree. Values keep their random high
/// bits, so the writers' masking is exercised too.
void expect_matches_reference(
    const std::vector<std::pair<u64, unsigned>>& pieces) {
  ReferenceWriter ref;
  BitWriter bw;
  std::vector<word_t> raw(words_for_bits(64 * pieces.size()) + 1, 0xDEADBEEFu);
  BitPacker<word_t*> packer(raw.data());
  for (const auto& [v, len] : pieces) {
    ref.put(v, len);
    bw.put(v, len);
    packer.put(v, len);
  }
  ASSERT_EQ(bw.bits(), ref.bits);
  ASSERT_EQ(packer.bits(), ref.bits);
  EXPECT_EQ(bw.finish(), ref.words);
  word_t* end = packer.flush();
  EXPECT_EQ(std::vector<word_t>(raw.data(), end), ref.words);
}

TEST(BitWriterReference, SeededRandomStreams) {
  const unsigned edge[] = {0, 1, 31, 32, 33, kMaxCodeLen, 64};
  Xoshiro256 rng(0xb175);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::pair<u64, unsigned>> pieces(rng.below(200));
    for (auto& [v, len] : pieces) {
      v = rng.next();
      len = rng.below(3) == 0 ? edge[rng.below(std::size(edge))]
                              : static_cast<unsigned>(rng.below(kMaxCodeLen + 1));
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_matches_reference(pieces);
  }
}

TEST(BitWriterReference, RunsEndingOnAWordBoundary) {
  // Totals that are whole cells: the final flush must add no padding cell.
  for (const auto& lens : std::vector<std::vector<unsigned>>{
           {32}, {31, 1}, {1, 31}, {33, 31}, {kMaxCodeLen, 6}, {64},
           {0, 32, 0}, {16, 16, 32, 0}, {5, 7, 11, 13, 17, 11}}) {
    std::vector<std::pair<u64, unsigned>> pieces;
    u64 total = 0;
    for (const unsigned len : lens) {
      pieces.emplace_back(0x0123456789abcdefull * (len + 1), len);
      total += len;
    }
    ASSERT_EQ(total % kWordBits, 0u);
    expect_matches_reference(pieces);
    BitWriter bw;
    for (const auto& [v, len] : pieces) bw.put(v, len);
    EXPECT_EQ(bw.finish().size(), total / kWordBits);
  }
}

TEST(BitWriterReference, OneBitAtATimeFillsEveryPosition) {
  std::vector<std::pair<u64, unsigned>> pieces;
  for (unsigned i = 0; i < 3 * kWordBits + 5; ++i) {
    pieces.emplace_back(i % 3 == 0 ? 1 : 0, 1);
  }
  expect_matches_reference(pieces);
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
