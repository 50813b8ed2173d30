// Bounds-checked byte IO underpinning every container format.
#include <gtest/gtest.h>

#include <vector>

#include "core/bytesio.hpp"

namespace parhuff {
namespace {

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter w;
  w.put<u8>(0xAB);
  w.put<u32>(0xDEADBEEF);
  w.put<u64>(u64{1} << 60);
  w.put<double>(3.5);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8);

  ByteReader r(bytes);
  EXPECT_EQ(r.get<u8>(), 0xAB);
  EXPECT_EQ(r.get<u32>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<u64>(), u64{1} << 60);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, ArrayRoundTrip) {
  ByteWriter w;
  const std::vector<u32> v = {1, 2, 3, 1000000};
  w.put_array(std::span<const u32>(v));
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_array<u32>(4), v);
}

TEST(ByteIo, TruncationThrows) {
  ByteWriter w;
  w.put<u32>(7);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get<u64>(), std::runtime_error);
  // Cursor must not have advanced past a failed read's start.
  EXPECT_EQ(r.get<u32>(), 7u);
}

TEST(ByteIo, OverflowSafeNeedCheck) {
  // A huge requested length must not wrap the bounds arithmetic.
  const std::vector<u8> bytes = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get_array<u8>(static_cast<std::size_t>(-1)),
               std::runtime_error);
  EXPECT_THROW((void)r.get_view(static_cast<std::size_t>(-8)),
               std::runtime_error);
}

TEST(ByteIo, WideCountCannotWrapTheByteLength) {
  // 2^62 u64s is 2^65 bytes, which wraps to 0 in size_t arithmetic.
  const std::vector<u8> bytes = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get_array<u64>(std::size_t{1} << 62),
               std::runtime_error);
  EXPECT_EQ(r.position(), 0u);
}

TEST(ByteIo, EmptyArraysReadAnywhere) {
  // An empty field reads as an empty vector, also from an empty buffer
  // and at the very end of one, without moving the cursor.
  ByteReader none{std::span<const u8>()};
  EXPECT_TRUE(none.get_array<u32>(0).empty());
  EXPECT_TRUE(none.done());
  const std::vector<u8> bytes = {9};
  ByteReader r(bytes);
  EXPECT_EQ(r.get<u8>(), 9u);
  EXPECT_TRUE(r.get_array<u64>(0).empty());
  EXPECT_EQ(r.position(), 1u);
}

TEST(ByteIo, ViewsShareStorage) {
  ByteWriter w;
  w.put<u32>(0x01020304);
  w.put<u32>(0x05060708);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto v = r.get_view(4);
  EXPECT_EQ(v.data(), bytes.data());
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(ByteIo, PositionTracking) {
  ByteWriter w;
  for (int i = 0; i < 10; ++i) w.put<u16>(static_cast<u16>(i));
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.position(), 0u);
  (void)r.get<u16>();
  (void)r.get<u16>();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 16u);
  EXPECT_FALSE(r.done());
}

}  // namespace
}  // namespace parhuff
