#pragma once
// Codeword value type and the MERGE operation from §IV-C.

#include <cassert>

#include "util/types.hpp"

namespace parhuff {

/// A Huffman codeword: right-aligned numeric value + bit length.
/// len == 0 means "symbol absent from the codebook".
struct Codeword {
  u64 bits = 0;
  u8 len = 0;

  friend bool operator==(const Codeword&, const Codeword&) = default;
};

/// MERGE((a,l)_2k, (a,l)_2k+1) = (a_2k ⊕ a_2k+1, l_2k + l_2k+1): concatenate
/// the right codeword's bits after the left's. Non-commutative; `ok` is
/// false when the result would not fit the 64-bit register, which is the
/// in-register analogue of a breaking point.
struct MergeResult {
  Codeword cw;
  bool ok;
};

[[nodiscard]] inline MergeResult merge(Codeword left, Codeword right) {
  const unsigned total = static_cast<unsigned>(left.len) + right.len;
  if (total > 64) return {Codeword{}, false};
  // (left.bits << right.len) needs care when right.len == 64 (left must be
  // empty then, and the shift would be UB).
  const u64 merged =
      right.len == 64 ? right.bits : (left.bits << right.len) | right.bits;
  return {Codeword{merged, static_cast<u8>(total)}, true};
}

}  // namespace parhuff
