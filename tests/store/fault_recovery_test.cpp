// The recovery-contract property suite: 240 deterministic seeded fault
// scenarios (2 populations x 2 fault families x 60 seeds) driven through
// the production write and read paths. The contract under test:
//
//   For every scenario, either the round trip is bit-identical, or the
//   operation surfaces a typed StoreError / itemized ReadReport whose
//   accounting is exact. A silently wrong value — an intact-looking
//   column whose bytes differ from what was written — is a failure of
//   this suite no matter how the fault landed.
//
// Determinism: every plan derives from util::Rng forks of a fixed
// per-scenario seed, so CI replays the identical fault grid on any
// machine (this suite is also the storage leg of the sanitize CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "store/fault_injection.h"
#include "store/snapshot.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace resmodel::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "<absent>";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One deterministic test population: shape + a data seed.
struct PopulationSpec {
  const char* name;
  std::string kind;
  std::vector<ColumnSpec> schema;
  std::vector<std::uint64_t> shard_rows;
  std::uint64_t data_seed;
};

std::vector<PopulationSpec> populations() {
  return {
      {"wide",
       "fault.wide.v1",
       {{"a", DType::kF64}, {"b", DType::kI32}, {"c", DType::kU8},
        {"d", DType::kU64}, {"e", DType::kF32}, {"f", DType::kI64}},
       {31, 17},
       0xA11CE},
      {"deep",
       "fault.deep.v1",
       {{"x", DType::kF64}, {"y", DType::kI32}, {"z", DType::kU64}},
       {97, 97, 97, 97, 5},
       0xB0B},
  };
}

/// shards[s][c] = payload bytes of column c in shard s, filled from a
/// deterministic stream.
using ShardData = std::vector<std::vector<std::vector<std::byte>>>;

ShardData make_data(const PopulationSpec& spec) {
  util::Rng rng(spec.data_seed);
  ShardData shards;
  for (const std::uint64_t rows : spec.shard_rows) {
    std::vector<std::vector<std::byte>> cols;
    for (const ColumnSpec& col : spec.schema) {
      std::vector<std::byte> bytes(rows * dtype_size(col.dtype));
      for (std::byte& b : bytes) {
        b = static_cast<std::byte>(rng.uniform_index(256));
      }
      cols.push_back(std::move(bytes));
    }
    shards.push_back(std::move(cols));
  }
  return shards;
}

/// Writes the population; returns the writer's column digests.
std::vector<std::uint32_t> write_population(const std::string& path,
                                            const PopulationSpec& spec,
                                            const ShardData& shards,
                                            FileSystem* fs = nullptr) {
  WriterOptions opts;
  opts.fs = fs;
  SnapshotWriter writer(path, spec.kind, spec.schema, opts);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::vector<std::span<const std::byte>> spans;
    spans.reserve(shards[s].size());
    for (const auto& col : shards[s]) spans.emplace_back(col);
    writer.append_shard(spans, spec.shard_rows[s]);
  }
  writer.finish({{"suite", "fault_recovery"}});
  return writer.column_digests();
}

/// Byte-compares the recovered snapshot against the source data,
/// skipping exactly the (column, shard) pairs the report itemized as
/// lost (those must be zero-filled). Any other divergence is silent
/// corruption.
void check_recovered_exactly(const PopulationSpec& spec,
                             const ShardData& shards, const Snapshot& snap,
                             const ReadReport& report,
                             const std::string& label) {
  std::set<std::pair<std::uint32_t, std::uint64_t>> lost;
  std::uint64_t rows_lost = 0;
  for (const LostBlock& b : report.lost) {
    lost.insert({b.column, b.shard});
    rows_lost += b.rows;
  }
  EXPECT_EQ(report.rows_lost, rows_lost) << label;
  ASSERT_EQ(snap.columns.size(), spec.schema.size()) << label;

  for (std::size_t c = 0; c < spec.schema.size(); ++c) {
    const std::size_t elem = dtype_size(spec.schema[c].dtype);
    const std::vector<std::byte>& got = snap.columns[c].data;
    std::size_t offset = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::vector<std::byte>& want = shards[s][c];
      if (offset + want.size() > got.size()) {
        // Footerless scans may not reach trailing shards at all; those
        // rows are simply absent (accounted via the report), which is a
        // shorter column, not a wrong one.
        break;
      }
      const bool is_lost =
          lost.count({static_cast<std::uint32_t>(c), s}) > 0;
      bool identical = true;
      bool zeroed = true;
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[offset + i] != want[i]) identical = false;
        if (got[offset + i] != std::byte{0}) zeroed = false;
      }
      if (is_lost) {
        EXPECT_TRUE(zeroed) << label << ": lost block (col " << c
                            << ", shard " << s << ") not zero-filled";
      } else {
        EXPECT_TRUE(identical)
            << label << ": SILENT CORRUPTION in col " << c << ", shard "
            << s << " (" << want.size() / elem << " rows)";
      }
      offset += want.size();
    }
  }
}

// --- family 1: writer-visible faults (ENOSPC / EIO / crash) ----------------

TEST(FaultRecovery, WriterFaultsNeverDamageThePublishedFile) {
  for (const PopulationSpec& spec : populations()) {
    const ShardData shards = make_data(spec);
    const std::string path =
        temp_path(std::string("writer_fault_") + spec.name + ".snap");

    // Publish a genuine previous version, then measure the clean size
    // the fault offsets are sampled against.
    std::remove(path.c_str());
    const std::vector<std::uint32_t> v1_digests =
        write_population(path, spec, shards);
    const std::string v1_bytes = read_file(path);
    ASSERT_NE(v1_bytes, "<absent>");

    int clean = 0, faulted = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      SCOPED_TRACE(std::string(spec.name) + " seed " + std::to_string(seed));
      util::Rng rng(0xFA17 + seed);
      util::Rng plan_rng = rng.fork();
      const FaultPlan plan = FaultPlan::sample(plan_rng, v1_bytes.size());
      FaultyFileSystem fs(FileSystem::real(), plan);

      bool threw = false;
      try {
        write_population(path, spec, shards, &fs);
      } catch (const StoreError& e) {
        threw = true;
        EXPECT_TRUE(e.errc() == StoreErrc::kNoSpace ||
                    e.errc() == StoreErrc::kIoError ||
                    e.errc() == StoreErrc::kSimulatedCrash)
            << to_string(e.errc());
      }
      // Crash plans always die (at the trigger or at commit); the other
      // kinds pass through only if the offset was never crossed.
      if (threw) {
        ++faulted;
        // The destination must be byte-for-byte the previous version.
        EXPECT_EQ(read_file(path), v1_bytes) << "destination damaged";
      } else {
        ++clean;
        EXPECT_FALSE(fs.fault_fired());
      }
      std::remove((path + ".tmp").c_str());  // crash scenarios leave litter

      // Whatever happened, the published file verifies bit-identically.
      SnapshotReader reader(path);
      const SnapshotReader::VerifyResult v = reader.verify();
      EXPECT_TRUE(v.report.complete);
      EXPECT_EQ(v.column_digests, v1_digests);
    }
    // The sampled grid must actually exercise faults (and kCrash ensures
    // at least a third of plans fire).
    EXPECT_GE(faulted, 15) << spec.name;
    EXPECT_EQ(clean + faulted, 60) << spec.name;
  }
}

// --- family 2: post-publication corruption (truncate / zero / bit flip) ----

TEST(FaultRecovery, CorruptionIsAlwaysDetectedAndExactlyAccounted) {
  for (const PopulationSpec& spec : populations()) {
    const ShardData shards = make_data(spec);
    const std::string clean_path =
        temp_path(std::string("corrupt_clean_") + spec.name + ".snap");
    const std::vector<std::uint32_t> digests =
        write_population(clean_path, spec, shards);
    const std::string clean_bytes = read_file(clean_path);
    std::uint64_t total_blocks = 0;
    {
      SnapshotReader reader(clean_path);
      total_blocks = reader.verify().report.blocks_expected;
    }

    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      SCOPED_TRACE(std::string(spec.name) + " seed " + std::to_string(seed));
      const std::string path =
          temp_path(std::string("corrupt_") + spec.name + ".snap");
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << clean_bytes;
      }
      util::Rng rng(0xC0FF + seed);
      util::Rng plan_rng = rng.fork();
      const CorruptionPlan plan =
          CorruptionPlan::sample(plan_rng, clean_bytes.size());
      corrupt_file(path, plan);
      const bool unchanged = read_file(path) == clean_bytes;

      // Strict path: success is only acceptable when the corruption was
      // a genuine no-op (e.g. zeroing an already-zero tail).
      bool strict_ok = false;
      try {
        SnapshotReader reader(path);
        const Snapshot snap = reader.read_all();
        strict_ok = true;
        ReadReport none;
        none.blocks_expected = none.blocks_loaded = total_blocks;
        check_recovered_exactly(spec, shards, snap, none, "strict");
        EXPECT_TRUE(unchanged)
            << "strict read succeeded on a damaged file (SILENT)";
      } catch (const StoreError&) {
        EXPECT_FALSE(unchanged) << "strict read failed on an intact file";
      }

      // Recovering path: may be unavailable only when the header itself
      // is gone (typed error); otherwise every surviving block must be
      // exact and every lost one itemized.
      try {
        SnapshotReader reader(path);
        ReadReport report;
        const Snapshot snap = reader.read_recovering(report);
        if (strict_ok) {
          EXPECT_TRUE(report.complete);
          EXPECT_TRUE(report.lost.empty());
        } else {
          EXPECT_FALSE(report.complete);
        }
        if (report.footer_intact) {
          EXPECT_EQ(report.blocks_expected, total_blocks);
          EXPECT_EQ(report.blocks_loaded + report.lost.size(),
                    report.blocks_expected);
        }
        check_recovered_exactly(spec, shards, snap, report, "recovering");

        // verify() must agree with the recovering read, and digests of
        // intact columns must match the writer's.
        const SnapshotReader::VerifyResult v = SnapshotReader(path).verify();
        EXPECT_EQ(v.report.complete, report.complete);
        EXPECT_EQ(v.report.lost.size(), report.lost.size());
        for (std::size_t c = 0; c < spec.schema.size(); ++c) {
          if (v.column_intact[c] && v.report.footer_intact) {
            EXPECT_EQ(v.column_digests[c], digests[c])
                << "intact column " << c << " digest drifted (SILENT)";
          }
        }
      } catch (const StoreError& e) {
        // Header destroyed: the reader refused with a typed cause.
        EXPECT_TRUE(e.errc() == StoreErrc::kBadMagic ||
                    e.errc() == StoreErrc::kBadVersion ||
                    e.errc() == StoreErrc::kBadEndianness ||
                    e.errc() == StoreErrc::kHeaderCorrupt ||
                    e.errc() == StoreErrc::kTruncated ||
                    e.errc() == StoreErrc::kSchemaMismatch)
            << to_string(e.errc());
      }
      std::remove(path.c_str());
    }
  }
}

/// Hand-forged snapshot with one column "x", footerless unless a test
/// calls finish(): lets a test put lengths into block headers and footers
/// that the writer would never produce, with valid checksums so only the
/// reader's bounds checks stand in the way.
struct ForgedFile {
  std::string bytes;

  explicit ForgedFile(DType dtype) {
    u64(kFileMagic);
    u32(kFormatVersion);
    u32(kEndianTag);
    const std::string kind = "fault.forged.v1";
    u32(static_cast<std::uint32_t>(kind.size()));
    bytes += kind;
    u32(1);  // one column
    u32(1);
    bytes += "x";
    u32(static_cast<std::uint32_t>(dtype));
    u32(util::crc32c(bytes.data(), bytes.size()));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  /// Appends a column-0 block header; returns its offset.
  std::size_t block_header(std::uint64_t shard, std::uint64_t rows,
                           std::uint64_t payload_bytes) {
    const std::size_t at = bytes.size();
    u32(kBlockMagic);
    u32(0);
    u64(shard);
    u64(rows);
    u64(payload_bytes);
    return at;
  }
  /// Appends `payload` and the checksum frame of the block at `at`;
  /// returns the block's CRC.
  std::uint32_t seal(std::size_t at, const std::string& payload) {
    bytes += payload;
    std::uint32_t crc = util::crc32c(bytes.data() + at, kBlockHeaderBytes);
    crc = util::crc32c(payload.data(), payload.size(), crc);
    u32(crc);
    u32(~crc);
    return crc;
  }
  /// One column-0 block-index entry of a forged footer.
  struct IndexEntry {
    std::uint64_t shard, offset, rows, payload_bytes;
    std::uint32_t crc;
  };
  /// Appends a footer claiming `rows` rows and `block_count` index
  /// entries (of which `entries` are written), then a trailer framing it
  /// with a matching footer CRC, as the writer's finish() would.
  void finish(std::uint64_t rows, std::uint32_t block_count,
              const std::vector<IndexEntry>& entries) {
    const std::size_t footer_at = bytes.size();
    u64(rows);
    u64(entries.size());  // shards
    u32(block_count);
    u32(0);  // metadata entries
    for (const IndexEntry& e : entries) {
      u32(0);
      u64(e.shard);
      u64(e.offset);
      u64(e.rows);
      u64(e.payload_bytes);
      u32(e.crc);
    }
    const std::size_t footer_len = bytes.size() - footer_at;
    u64(footer_at);
    u32(static_cast<std::uint32_t>(footer_len));
    u32(util::crc32c(bytes.data() + footer_at, footer_len));
    u64(kTrailerMagic);
  }
  std::string write(const std::string& name) const {
    const std::string path = temp_path(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    return path;
  }
};

// The second block header declares a length so large that `offset +
// header + payload + frame` wraps around 2^64 and lands the checksum-
// frame read back inside the first block's payload, where a matching
// (crc, ~crc) pair waits. The scan must stop at that header and account
// for it like a torn tail: no allocation sized by the forged length, no
// untyped exception.
TEST(FaultRecovery, WrappingBlockLengthEndsTheScanLikeATornTail) {
  constexpr std::uint64_t kRows = 64;
  constexpr std::uint64_t kForged = 0xffffffffffffffa0ull;  // -96
  ForgedFile file(DType::kU8);
  std::string payload(kRows, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 37 + 5);
  }
  const std::uint32_t x = 0x5eed1234u;
  for (int i = 0; i < 4; ++i) {
    payload[8 + i] = static_cast<char>(x >> (8 * i));
    payload[12 + i] = static_cast<char>(~x >> (8 * i));
  }
  const std::size_t block0 = file.block_header(0, kRows, kRows);
  file.seal(block0, payload);
  // Shard 1: a header and the first 8 bytes of a torn payload.
  const std::uint64_t block1 = file.block_header(1, kForged, kForged);
  file.u64(0);
  ASSERT_EQ(block1 + kBlockHeaderBytes + kForged,
            block0 + kBlockHeaderBytes + 8);
  const std::string path = file.write("wrapping_block_length.snap");

  const SnapshotReader::VerifyResult v = SnapshotReader(path).verify();
  EXPECT_FALSE(v.report.footer_intact);
  EXPECT_FALSE(v.report.complete);
  EXPECT_EQ(v.report.blocks_expected, 1u);
  EXPECT_EQ(v.report.blocks_loaded, 1u);
  EXPECT_TRUE(v.report.lost.empty());
  EXPECT_EQ(v.report.tail_bytes_unscanned, kBlockHeaderBytes + 8);

  SnapshotReader reader(path);
  ReadReport report;
  const Snapshot snap = reader.read_recovering(report);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.blocks_loaded, 1u);
  EXPECT_EQ(report.tail_bytes_unscanned, kBlockHeaderBytes + 8);
  ASSERT_EQ(snap.rows, kRows);
  ASSERT_EQ(snap.columns.size(), 1u);
  EXPECT_EQ(std::memcmp(snap.columns[0].data.data(), payload.data(), kRows),
            0);
  std::remove(path.c_str());
}

// A row count whose byte size wraps (2^61 + 8 f64 rows "fill" 64 bytes)
// is not a block, however valid its checksum: the scan ends before it.
TEST(FaultRecovery, WrappingRowCountIsNotABlock) {
  ForgedFile file(DType::kF64);
  const std::size_t data_begin = file.bytes.size();
  file.seal(file.block_header(0, (1ull << 61) + 8, 64), std::string(64, 'r'));
  const std::string path = file.write("wrapping_row_count.snap");

  SnapshotReader reader(path);
  ReadReport report;
  const Snapshot snap = reader.read_recovering(report);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.blocks_loaded, 0u);
  EXPECT_EQ(snap.rows, 0u);
  EXPECT_EQ(report.tail_bytes_unscanned, file.bytes.size() - data_begin);
  EXPECT_EQ(SnapshotReader(path).verify().report.blocks_loaded, 0u);
  std::remove(path.c_str());
}

/// One intact 64-row u8 block, indexed by a CRC-valid forged footer.
ForgedFile file_with_forged_footer(std::uint64_t rows,
                                   std::uint32_t block_count) {
  constexpr std::uint64_t kRows = 64;
  ForgedFile file(DType::kU8);
  const std::size_t at = file.block_header(0, kRows, kRows);
  const std::uint32_t crc = file.seal(at, std::string(kRows, 'p'));
  file.finish(rows, block_count, {{0, at, kRows, kRows, crc}});
  return file;
}

/// The forged footer is rejected with a typed cause; the intact block
/// is still recovered by the forward scan.
void expect_forged_footer_rejected(const ForgedFile& file,
                                   const std::string& name) {
  const std::string path = file.write(name);
  SnapshotReader reader(path);
  try {
    reader.read_all();
    ADD_FAILURE() << "read_all accepted a forged footer";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.errc(), StoreErrc::kFooterCorrupt) << to_string(e.errc());
  }
  ReadReport report;
  const Snapshot snap = reader.read_recovering(report);
  EXPECT_FALSE(report.footer_intact);
  EXPECT_EQ(report.blocks_loaded, 1u);
  EXPECT_EQ(snap.rows, 64u);
  std::remove(path.c_str());
}

// A footer whose index claims 2^32 - 1 entries while holding one: the
// reader must not reserve 2^32 index slots (~200 GB) on its say-so.
TEST(FaultRecovery, ForgedFooterBlockCountIsBoundedByFooterLength) {
  expect_forged_footer_rejected(file_with_forged_footer(64, 0xffffffffu),
                                "forged_block_count.snap");
}

// A footer whose row total (2^50) disagrees with its block index: it
// must not size the read buffers (a petabyte per column).
TEST(FaultRecovery, ForgedFooterRowTotalMustMatchBlockIndex) {
  expect_forged_footer_rejected(file_with_forged_footer(1ull << 50, 1),
                                "forged_row_total.snap");
}

}  // namespace
}  // namespace resmodel::store
