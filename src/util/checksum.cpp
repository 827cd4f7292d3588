#include "util/checksum.h"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace resmodel::util {

namespace {

// Slice-by-8 lookup tables, built once at first use. Table 0 is the plain
// byte-at-a-time CRC32C table; table k folds a byte that sits k positions
// ahead in the stream, letting the hot loop consume 8 bytes per iteration
// with eight independent loads.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Crc32cTables() noexcept {
    constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xffu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& tables() noexcept {
  static const Crc32cTables tables;
  return tables;
}

#if defined(__x86_64__)

// Stream lengths of the hardware kernel's 3-way interleave: long strides
// for the bulk of a buffer, short ones for what is left of it.
constexpr std::size_t kLongStride = 8192;
constexpr std::size_t kShortStride = 256;

/// The linear operator "append `len` zero bytes" on a raw (uninverted)
/// CRC register, as four byte-indexed tables (Adler's zeros operator).
/// The operator is linear, so it is fixed by the images of the 32
/// register bits, each found by running the table arm over `len` zero
/// bytes. Joining streams uses
/// reg(s, a|b) == shift_|b|(reg(s, a)) ^ reg(0, b).
struct ZerosOperator {
  std::size_t len;
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  explicit ZerosOperator(std::size_t zero_bytes) noexcept : len(zero_bytes) {
    static constexpr std::array<unsigned char, kLongStride> kZeros{};
    std::array<std::uint32_t, 32> image{};
    for (int bit = 0; bit < 32; ++bit) {
      image[bit] = ~crc32c_table(kZeros.data(), len, ~(1u << bit));
    }
    for (int k = 0; k < 4; ++k) {
      for (std::uint32_t n = 0; n < 256; ++n) {
        for (int bit = 0; bit < 8; ++bit) {
          if ((n >> bit) & 1u) t[k][n] ^= image[8 * k + bit];
        }
      }
    }
  }

  std::uint32_t apply(std::uint32_t crc) const noexcept {
    return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^
           t[2][(crc >> 16) & 0xffu] ^ t[3][crc >> 24];
  }
};

std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// SSE4.2 arm: three independent `crc32` chains hide the instruction's
/// 3-cycle latency (a single chain is latency-bound at about half the
/// rate), then the chains are joined with the zeros operator for their
/// stride.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) noexcept {
  static const ZerosOperator long_shift(kLongStride);
  static const ZerosOperator short_shift(kShortStride);
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc0 = ~seed;

  for (const ZerosOperator* shift : {&long_shift, &short_shift}) {
    const std::size_t stride = shift->len;
    while (size >= 3 * stride) {
      std::uint64_t crc1 = 0;
      std::uint64_t crc2 = 0;
      for (const unsigned char* end = p + stride; p < end; p += 8) {
        crc0 = _mm_crc32_u64(crc0, load_u64(p));
        crc1 = _mm_crc32_u64(crc1, load_u64(p + stride));
        crc2 = _mm_crc32_u64(crc2, load_u64(p + 2 * stride));
      }
      crc0 = shift->apply(static_cast<std::uint32_t>(crc0)) ^ crc1;
      crc0 = shift->apply(static_cast<std::uint32_t>(crc0)) ^ crc2;
      p += 2 * stride;
      size -= 3 * stride;
    }
  }
  for (; size >= 8; p += 8, size -= 8) {
    crc0 = _mm_crc32_u64(crc0, load_u64(p));
  }
  for (; size > 0; --size) {
    crc0 = _mm_crc32_u8(static_cast<std::uint32_t>(crc0), *p++);
  }
  return ~static_cast<std::uint32_t>(crc0);
}

#endif  // __x86_64__

struct Arm {
  std::uint32_t (*fn)(const void*, std::size_t, std::uint32_t) noexcept;
  const char* name;
};

Arm pick_arm() noexcept {
#if defined(__x86_64__)
  // RESMODEL_SIMD=off is the tree-wide "no instruction-set extensions"
  // mask (src/backend/backend.h); it routes the checksum to the oracle.
  const char* env = std::getenv("RESMODEL_SIMD");
  const bool masked = env != nullptr && std::strcmp(env, "off") == 0;
  if (!masked && __builtin_cpu_supports("sse4.2")) {
    return {crc32c_sse42, "sse4.2"};
  }
#endif
  return {crc32c_table, "table"};
}

const Arm& arm() noexcept {
  static const Arm picked = pick_arm();
  return picked;
}

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;

  // Head: align to 8 bytes so the slice loop reads aligned words.
  while (size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // little-endian hosts only (asserted by store)
    word ^= crc;
    crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
          t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
          t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
          t[1][(word >> 48) & 0xffu] ^ t[0][(word >> 56) & 0xffu];
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --size;
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  return arm().fn(data, size, seed);
}

const char* crc32c_arm() noexcept { return arm().name; }

}  // namespace resmodel::util
