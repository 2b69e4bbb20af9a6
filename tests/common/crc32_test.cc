#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simd/kernels.h"
#include "simd/simd.h"

namespace upskill {
namespace {

// A plain nibble-table CRC-32 (two dependent 16-entry lookups per byte),
// sharing no code with the kernels under test: the oracle they must match
// bit for bit, so files written by earlier builds keep verifying.
uint32_t NibbleCrc32(const void* data, size_t size) {
  static constexpr uint32_t kTable[16] = {
      0x00000000, 0x1db71064, 0x3b6e20c8, 0x26d930ac,
      0x76dc4190, 0x6b6b51f4, 0x4db26158, 0x5005713c,
      0xedb88320, 0xf00f9344, 0xd6d6a3e8, 0xcb61b38c,
      0x9b64c2b0, 0x86d3d2d4, 0xa00ae278, 0xbdbdf21c};
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    crc = (crc >> 4) ^ kTable[crc & 0xf];
    crc = (crc >> 4) ^ kTable[crc & 0xf];
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Accumulator().Finish(), 0u);
}

// Every length through the kernel's block boundaries (16-byte lanes,
// 64-byte folds, 8-byte slices) at every alignment a 16-byte load can see.
TEST(Crc32Test, MatchesNibbleOracleAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 1024; ++size) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t want = NibbleCrc32(p, size);
      ASSERT_EQ(Crc32(p, size), want) << "offset " << offset << " size "
                                      << size;
      // The slicing-by-8 fallback, called directly, whatever the backend.
      ASSERT_EQ(simd::scalar::Crc32Update(0xffffffffu, p, size) ^ 0xffffffffu,
                want)
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32Test, AnySplitAcrossUpdatesGivesTheSameCrc) {
  const std::vector<uint8_t> bytes = RandomBytes(4096, 11);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, NibbleCrc32(bytes.data(), bytes.size()));
  // Every two-way split of a short prefix, including empty pieces.
  for (size_t size : {size_t{0}, size_t{63}, size_t{200}}) {
    const uint32_t want = Crc32(bytes.data(), size);
    for (size_t cut = 0; cut <= size; ++cut) {
      Crc32Accumulator crc;
      crc.Update(bytes.data(), cut);
      crc.Update(bytes.data() + cut, size - cut);
      ASSERT_EQ(crc.Finish(), want) << "size " << size << " cut " << cut;
    }
  }
  // Random many-way splits of the whole buffer.
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32Accumulator crc;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t piece = std::min<size_t>(
          bytes.size() - at, static_cast<size_t>(rng.NextInt(301)));
      crc.Update(bytes.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(crc.Finish(), whole) << "trial " << trial;
  }
}

TEST(Crc32Test, ForcedScalarBackendMatchesOracle) {
  const std::vector<uint8_t> bytes = RandomBytes(70000, 17);
  simd::ForceScalarForTest(true);
  const uint32_t scalar = Crc32(bytes.data() + 3, bytes.size() - 3);
  simd::ForceScalarForTest(false);
  EXPECT_EQ(scalar, NibbleCrc32(bytes.data() + 3, bytes.size() - 3));
  EXPECT_EQ(Crc32(bytes.data() + 3, bytes.size() - 3), scalar);
}

}  // namespace
}  // namespace upskill
