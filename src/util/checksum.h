// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// block of the columnar snapshot format (src/store/).
//
// Chosen over a plain CRC32 for its better error-detection properties on
// storage payloads (it is what iSCSI, ext4 metadata and LevelDB/RocksDB
// block formats use). Two arms compute the same function, picked once at
// the first call:
//   - "sse4.2": x86-64 CPUs with SSE4.2 run the `crc32` instruction over
//     three interleaved streams joined by precomputed zeros operators:
//     ~15 GiB/s on a cache-resident 2 MiB buffer and ~9 GiB/s streaming
//     64 MiB, on one core of a 4-vCPU x86-64 box (BM_Crc32cDispatched);
//   - "table": portable slice-by-8 table lookup, ~1.1 GiB/s on the same
//     core (BM_Crc32cTable). It is the oracle the hardware arm is tested
//     against, and the only arm on other CPUs.
// RESMODEL_SIMD=off (the same mask that caps the backend dispatch, see
// src/backend/backend.h) forces the table arm. Both arms produce the same
// values, so the on-disk format verifies identically whichever arm wrote
// or reads a file.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmodel::util {

/// CRC32C of `size` bytes on the fastest arm this CPU offers. `seed`
/// chains incremental computations:
/// crc32c(ab) == crc32c(b, len_b, crc32c(a, len_a)).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0) noexcept;

/// The portable slice-by-8 arm; same contract and values as crc32c().
std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed = 0) noexcept;

/// The arm crc32c() dispatches to: "sse4.2" or "table".
const char* crc32c_arm() noexcept;

}  // namespace resmodel::util
