#pragma once
// MSB-first bit stream primitives over 32-bit words.
//
// Conventions (used consistently by every encoder/decoder in parhuff):
//  * A codeword of length L is a right-aligned numeric value (its low L bits
//    hold the code; bit L-1 is emitted first).
//  * The stream packs bits into u32 cells from the most-significant bit
//    down, so concatenation of codewords is shift-and-or — the operation the
//    paper's REDUCE-merge performs in registers and SHUFFLE-merge performs
//    across cells.

#include <cassert>
#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace parhuff {

/// Payload cell type. The paper's kernels move uint32_t cells; breaking
/// statistics (Table II/V) are defined against this width.
using word_t = u32;
inline constexpr unsigned kWordBits = 32;

/// Number of word cells needed for `bits` bits.
[[nodiscard]] constexpr std::size_t words_for_bits(u64 bits) {
  return static_cast<std::size_t>((bits + kWordBits - 1) / kWordBits);
}

/// MSB-first bit packer: a 64-bit accumulator that emits each 32-bit cell
/// to `Out` (any output iterator over word_t — a raw workspace pointer or a
/// back_inserter) as soon as it fills. Every encoder writes its streams
/// through this one packer.
template <typename Out>
class BitPacker {
 public:
  explicit BitPacker(Out out) : out_(out) {}

  /// Append the low `len` bits of `value` (MSB of those first). len <= 64,
  /// so a merged 64-bit cell goes in with one call.
  void put(u64 value, unsigned len) {
    assert(len <= 64);
    if (len > kWordBits) {
      put_cell(value >> kWordBits, len - kWordBits);
      len = kWordBits;
    }
    put_cell(value, len);
  }

  /// Total bits put so far.
  [[nodiscard]] u64 bits() const { return bits_; }

  /// Emit the trailing partial cell, zero-padded. Returns the iterator past
  /// the last cell written; further puts start a fresh cell.
  Out flush() {
    if (fill_ > 0) {
      *out_++ = static_cast<word_t>(acc_ << (kWordBits - fill_));
      fill_ = 0;
    }
    return out_;
  }

 private:
  /// len <= 32. The low fill_ < 32 bits of acc_ are pending; anything above
  /// them is stale and shifts out, so the accumulator is never cleared.
  void put_cell(u64 value, unsigned len) {
    acc_ = (acc_ << len) | (value & ((u64{1} << len) - 1));
    fill_ += len;
    bits_ += len;
    if (fill_ >= kWordBits) {
      fill_ -= kWordBits;
      *out_++ = static_cast<word_t>(acc_ >> fill_);
    }
  }

  Out out_;
  u64 acc_ = 0;
  unsigned fill_ = 0;
  u64 bits_ = 0;
};

/// Append-only MSB-first bit writer into a growing word vector.
class BitWriter {
 public:
  BitWriter() : packer_(std::back_inserter(own_)) {}
  explicit BitWriter(std::vector<word_t>& sink)
      : out_(&sink), packer_(std::back_inserter(sink)) {}
  // The packer points at own_, so a writer stays where it was built.
  BitWriter(const BitWriter&) = delete;
  BitWriter& operator=(const BitWriter&) = delete;

  /// Append the low `len` bits of `value` (MSB of those first). len <= 64.
  void put(u64 value, unsigned len) { packer_.put(value, len); }

  /// Total bits written so far.
  [[nodiscard]] u64 bits() const { return packer_.bits(); }

  /// Flush the trailing partial word (zero-padded) and return the buffer.
  /// The writer is left empty.
  std::vector<word_t> finish() {
    packer_ = Packer(packer_.flush());
    std::vector<word_t> r;
    if (out_ == nullptr) {
      r = std::move(own_);
      own_.clear();
    }
    // (with an external sink the caller keeps the buffer; r stays empty)
    return r;
  }

  /// Flush the trailing partial word into the external sink.
  void finish_into_sink() { packer_.flush(); }

 private:
  using Packer = BitPacker<std::back_insert_iterator<std::vector<word_t>>>;

  std::vector<word_t>* out_ = nullptr;
  std::vector<word_t> own_;
  Packer packer_;
};

/// MSB-first bit reader over a word span.
///
/// Bounds are enforced, not asserted: decoders run over attacker-supplied
/// containers, and NDEBUG builds (the default CMAKE_BUILD_TYPE is Release)
/// compile asserts away. The constructor rejects a bit count the span
/// cannot back — which also closes the words_for_bits() wrap route, where
/// a near-2^64 bit count maps to 0 cells — and every advancing accessor
/// throws instead of reading out of bounds.
class BitReader {
 public:
  BitReader(std::span<const word_t> words, u64 total_bits)
      : words_(words), total_bits_(total_bits) {
    if (total_bits > static_cast<u64>(words.size()) * kWordBits) {
      throw std::out_of_range(
          "BitReader: bit count exceeds the backing span");
    }
  }

  /// Next single bit (0/1). Throws std::out_of_range past the end.
  [[nodiscard]] unsigned bit() {
    if (pos_ >= total_bits_) {
      throw std::out_of_range("BitReader: read past end of stream");
    }
    const std::size_t w = static_cast<std::size_t>(pos_ / kWordBits);
    const unsigned off = static_cast<unsigned>(pos_ % kWordBits);
    ++pos_;
    return (words_[w] >> (kWordBits - 1 - off)) & 1u;
  }

  /// Next `len` bits as a right-aligned value (len <= 58).
  [[nodiscard]] u64 take(unsigned len) {
    u64 v = 0;
    for (unsigned i = 0; i < len; ++i) v = (v << 1) | bit();
    return v;
  }

  /// Next `len` bits without advancing (len <= 57). Bits beyond the end of
  /// the stream read as zero, so table-driven decoders can peek a full
  /// window near the tail. Word-granular: at most three cell reads.
  [[nodiscard]] u64 peek(unsigned len) const {
    u64 v = 0;
    unsigned got = 0;
    u64 p = pos_;
    while (got < len && p < total_bits_) {
      const std::size_t w = static_cast<std::size_t>(p / kWordBits);
      const unsigned off = static_cast<unsigned>(p % kWordBits);
      unsigned take = kWordBits - off;
      if (take > len - got) take = len - got;
      if (static_cast<u64>(take) > total_bits_ - p) {
        take = static_cast<unsigned>(total_bits_ - p);
      }
      // Top `take` bits of the cell after skipping `off` bits.
      const u64 chunk =
          (static_cast<u64>(words_[w]) << (kWordBits + off)) >> (64 - take);
      v = (v << take) | chunk;
      got += take;
      p += take;
    }
    if (got < len) v <<= (len - got);  // zero padding past the end
    return v;
  }

  /// Advance by `n` bits. Throws std::out_of_range when n > remaining()
  /// (the subtraction form avoids the pos_ + n overflow a forged length
  /// field could provoke).
  void skip(u64 n) {
    if (n > total_bits_ - pos_) {
      throw std::out_of_range("BitReader: skip past end of stream");
    }
    pos_ += n;
  }

  /// Cell `i` of the backing span (stream bits [32i, 32i + 32)), or 0 past
  /// the span — the word-at-a-time refill for table-driven decoders. Bits
  /// of the last cell beyond total_bits() are returned as stored, so a
  /// caller must still bound what it consumes by remaining().
  [[nodiscard]] word_t cell(std::size_t i) const {
    return i < words_.size() ? words_[i] : 0;
  }

  [[nodiscard]] u64 position() const { return pos_; }
  [[nodiscard]] u64 total_bits() const { return total_bits_; }
  [[nodiscard]] u64 remaining() const { return total_bits_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= total_bits_; }

  void seek(u64 bit_pos) {
    if (bit_pos > total_bits_) {
      throw std::out_of_range("BitReader: seek past end of stream");
    }
    pos_ = bit_pos;
  }

 private:
  std::span<const word_t> words_;
  u64 total_bits_;
  u64 pos_ = 0;
};

}  // namespace parhuff
