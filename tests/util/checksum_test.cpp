#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace resmodel::util {
namespace {

// Stride edges of the hardware arm: it interleaves three streams of 8 KiB,
// then three of 256 B, then runs a serial 8-byte/1-byte tail.
constexpr std::size_t kLongBlock = 3 * 8192;
constexpr std::size_t kShortBlock = 3 * 256;

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  return bytes;
}

TEST(Crc32c, KnownAnswers) {
  // RFC 3720 (iSCSI) appendix B.4, plus the standard check value.
  std::vector<unsigned char> zeros(32, 0x00);
  std::vector<unsigned char> ones(32, 0xff);
  std::vector<unsigned char> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<unsigned char>(i);
  }
  const std::string check = "123456789";
  for (auto* fn : {&crc32c, &crc32c_table}) {
    EXPECT_EQ(fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(fn(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(fn(check.data(), check.size(), 0), 0xE3069283u);
    EXPECT_EQ(fn(nullptr, 0, 0), 0u);
  }
}

TEST(Crc32c, DispatchedArmMatchesTableAtEveryAlignmentAndStrideEdge) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t edge : {kShortBlock, kLongBlock,
                                 kLongBlock + kShortBlock}) {
    lengths.insert(lengths.end(), {edge - 1, edge, edge + 1});
  }
  Rng rng(11);
  for (int i = 0; i < 6; ++i) lengths.push_back(rng.next() % (1u << 20));

  const std::vector<unsigned char> buffer = random_bytes((1u << 20) + 8, 7);
  for (std::size_t align = 0; align < 8; ++align) {
    for (const std::size_t n : lengths) {
      const unsigned char* p = buffer.data() + align;
      const std::uint32_t seed = static_cast<std::uint32_t>(n * 2654435761u);
      ASSERT_EQ(crc32c(p, n, seed), crc32c_table(p, n, seed))
          << "align " << align << ", length " << n;
    }
  }
}

TEST(Crc32c, ChainsAcrossEverySplit) {
  const std::size_t n = kLongBlock + kShortBlock;
  const std::vector<unsigned char> bytes = random_bytes(n, 3);
  const std::uint32_t whole = crc32c_table(bytes.data(), n);
  ASSERT_EQ(crc32c(bytes.data(), n), whole);
  for (std::size_t split = 0; split <= n; ++split) {
    const std::uint32_t head = crc32c(bytes.data(), split);
    ASSERT_EQ(crc32c(bytes.data() + split, n - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32c, ReportsTheArmItDispatchesTo) {
  const std::string arm = crc32c_arm();
  EXPECT_TRUE(arm == "sse4.2" || arm == "table") << arm;
  const char* mask = std::getenv("RESMODEL_SIMD");
  if (mask != nullptr && std::strcmp(mask, "off") == 0) {
    EXPECT_EQ(arm, "table");
  }
}

}  // namespace
}  // namespace resmodel::util
