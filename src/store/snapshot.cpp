#include "store/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/checksum.h"

namespace resmodel::store {

namespace {

// ---- little-endian (de)serialization helpers -------------------------

/// Growable byte buffer with explicit little-endian puts. All multi-byte
/// integers in the format go through here (or through the writer's block
/// header builder), so the on-disk encoding is fixed regardless of host
/// compiler padding rules.
struct ByteBuffer {
  std::vector<std::byte> bytes;

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
    }
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
    }
  }
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    bytes.insert(bytes.end(), p, p + s.size());
  }
};

/// Bounds-checked cursor over a byte span. ok() goes false (sticky) on
/// any overrun instead of throwing, so callers can turn the failure into
/// the typed error appropriate to what they were parsing.
struct BufReader {
  const std::byte* p;
  std::size_t remaining;
  bool overrun = false;

  std::uint32_t u32() {
    if (remaining < 4) { overrun = true; return 0; }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(std::to_integer<unsigned>(p[i]))
           << (8 * i);
    }
    p += 4; remaining -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (remaining < 8) { overrun = true; return 0; }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]))
           << (8 * i);
    }
    p += 8; remaining -= 8;
    return v;
  }
  std::string str(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (overrun || len > max_len || remaining < len) {
      overrun = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len; remaining -= len;
    return s;
  }
  bool ok() const { return !overrun; }
};

// Sanity ceilings for header/footer fields: far above anything the
// writer produces, low enough that a corrupted length cannot drive a
// multi-gigabyte allocation before the checksum verdict is in.
constexpr std::uint32_t kMaxKindLen = 256;
constexpr std::uint32_t kMaxColumnName = 256;
constexpr std::uint32_t kMaxColumns = 4096;
constexpr std::uint32_t kMaxMetadataEntries = 4096;
constexpr std::uint32_t kMaxMetadataLen = 1 << 20;
/// One footer block-index entry: column (u32), shard, offset, rows and
/// payload length (u64 each), CRC (u32).
constexpr std::size_t kFooterEntryBytes = 40;

/// 32-byte block header as raw bytes (magic, column, shard, rows,
/// payload length), shared by writer and reader so the CRC covers the
/// identical encoding on both sides.
std::array<std::byte, kBlockHeaderBytes> encode_block_header(
    std::uint32_t column, std::uint64_t shard, std::uint64_t rows,
    std::uint64_t payload_bytes) {
  ByteBuffer b;
  b.put_u32(kBlockMagic);
  b.put_u32(column);
  b.put_u64(shard);
  b.put_u64(rows);
  b.put_u64(payload_bytes);
  std::array<std::byte, kBlockHeaderBytes> out;
  std::memcpy(out.data(), b.bytes.data(), kBlockHeaderBytes);
  return out;
}

bool host_is_little_endian() {
  return std::endian::native == std::endian::little;
}

// Lengths below come from the file, so none of these checks may add two
// of them: each compares one length against the bytes that remain.

/// True when a whole block (header, `payload_bytes` of payload and the
/// 8-byte checksum frame) starting at `offset` ends at or before `limit`.
bool block_fits(std::uint64_t offset, std::uint64_t payload_bytes,
                std::uint64_t limit) {
  constexpr std::uint64_t kFrame = kBlockHeaderBytes + 8;
  return offset <= limit && limit - offset >= kFrame &&
         payload_bytes <= limit - offset - kFrame;
}

/// True when `payload_bytes` holds exactly `rows` elements of `dtype`.
bool payload_holds_rows(std::uint64_t payload_bytes, std::uint64_t rows,
                        DType dtype) {
  const std::uint64_t size = dtype_size(dtype);
  return payload_bytes % size == 0 && payload_bytes / size == rows;
}

}  // namespace

const Column* Snapshot::find(std::string_view name) const noexcept {
  for (const Column& c : columns) {
    if (c.spec.name == name) return &c;
  }
  return nullptr;
}

// ---- writer ----------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::string path, std::string kind,
                               std::vector<ColumnSpec> schema,
                               WriterOptions opts)
    : kind_(std::move(kind)),
      schema_(std::move(schema)),
      fs_(opts.fs ? opts.fs : &FileSystem::real()),
      file_(std::move(path), *fs_) {
  // The endianness guard the format header advertises: columns are
  // written as raw native element bytes, so a big-endian host would
  // silently produce byte-swapped files — refuse at write time instead.
  if (!host_is_little_endian()) {
    throw StoreError(StoreErrc::kBadEndianness, file_.path(),
                     "snapshot writer requires a little-endian host");
  }
  if (schema_.empty()) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "empty column schema");
  }
  if (kind_.size() > kMaxKindLen) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "kind string too long");
  }
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name.empty() || schema_[i].name.size() > kMaxColumnName) {
      throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                       "bad column name at index " + std::to_string(i));
    }
    dtype_size(schema_[i].dtype);  // validates the enum value
    for (std::size_t j = 0; j < i; ++j) {
      if (schema_[j].name == schema_[i].name) {
        throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                         "duplicate column name '" + schema_[i].name + "'");
      }
    }
  }
  digests_.assign(schema_.size(), 0);

  ByteBuffer header;
  header.put_u64(kFileMagic);
  header.put_u32(kFormatVersion);
  header.put_u32(kEndianTag);
  header.put_string(kind_);
  header.put_u32(static_cast<std::uint32_t>(schema_.size()));
  for (const ColumnSpec& c : schema_) {
    header.put_string(c.name);
    header.put_u32(static_cast<std::uint32_t>(c.dtype));
  }
  const std::uint32_t crc =
      util::crc32c(header.bytes.data(), header.bytes.size());
  header.put_u32(crc);
  file_.append(header.bytes.data(), header.bytes.size());
}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::append_shard(
    std::span<const std::span<const std::byte>> columns, std::uint64_t rows) {
  if (finished_) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "append_shard after finish");
  }
  if (columns.size() != schema_.size()) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "shard has " + std::to_string(columns.size()) +
                         " columns, schema has " +
                         std::to_string(schema_.size()));
  }
  if (rows == 0) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "empty shard");
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].size() != rows * dtype_size(schema_[i].dtype)) {
      throw StoreError(
          StoreErrc::kInvalidArgument, file_.path(),
          "column '" + schema_[i].name + "' has " +
              std::to_string(columns[i].size()) + " bytes, expected " +
              std::to_string(rows * dtype_size(schema_[i].dtype)));
    }
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const auto header = encode_block_header(static_cast<std::uint32_t>(i),
                                            shards_, rows,
                                            columns[i].size());
    std::uint32_t crc = util::crc32c(header.data(), header.size());
    crc = util::crc32c(columns[i].data(), columns[i].size(), crc);

    BlockRecord rec;
    rec.column = static_cast<std::uint32_t>(i);
    rec.shard = shards_;
    rec.offset = file_.offset();
    rec.rows = rows;
    rec.payload_bytes = columns[i].size();
    rec.crc = crc;

    file_.append(header.data(), header.size());
    file_.append(columns[i].data(), columns[i].size());
    // 8-byte checksum frame: the CRC and its complement (a cheap guard
    // against the frame itself being zeroed along with the payload).
    ByteBuffer tail;
    tail.put_u32(crc);
    tail.put_u32(~crc);
    file_.append(tail.bytes.data(), tail.bytes.size());

    blocks_.push_back(rec);
    digests_[i] = util::crc32c(columns[i].data(), columns[i].size(),
                               digests_[i]);
  }
  rows_ += rows;
  ++shards_;
}

void SnapshotWriter::finish(
    std::vector<std::pair<std::string, std::string>> metadata) {
  if (finished_) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "finish called twice");
  }
  if (metadata.size() > kMaxMetadataEntries) {
    throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                     "too many metadata entries");
  }
  const std::uint64_t footer_offset = file_.offset();
  ByteBuffer footer;
  footer.put_u64(rows_);
  footer.put_u64(shards_);
  footer.put_u32(static_cast<std::uint32_t>(blocks_.size()));
  footer.put_u32(static_cast<std::uint32_t>(metadata.size()));
  for (const BlockRecord& b : blocks_) {
    footer.put_u32(b.column);
    footer.put_u64(b.shard);
    footer.put_u64(b.offset);
    footer.put_u64(b.rows);
    footer.put_u64(b.payload_bytes);
    footer.put_u32(b.crc);
  }
  for (const auto& [key, value] : metadata) {
    if (key.size() > kMaxMetadataLen || value.size() > kMaxMetadataLen) {
      throw StoreError(StoreErrc::kInvalidArgument, file_.path(),
                       "metadata entry too large");
    }
    footer.put_string(key);
    footer.put_string(value);
  }
  const std::uint32_t footer_crc =
      util::crc32c(footer.bytes.data(), footer.bytes.size());
  file_.append(footer.bytes.data(), footer.bytes.size());

  ByteBuffer trailer;
  trailer.put_u64(footer_offset);
  trailer.put_u32(static_cast<std::uint32_t>(footer.bytes.size()));
  trailer.put_u32(footer_crc);
  trailer.put_u64(kTrailerMagic);
  file_.append(trailer.bytes.data(), trailer.bytes.size());

  file_.commit();
  finished_ = true;
}

void write_snapshot_file(const std::string& path, const Snapshot& snapshot,
                         WriterOptions opts) {
  std::vector<ColumnSpec> schema;
  schema.reserve(snapshot.columns.size());
  for (const Column& c : snapshot.columns) schema.push_back(c.spec);
  SnapshotWriter writer(path, snapshot.kind, std::move(schema), opts);
  if (snapshot.rows > 0) {
    std::vector<std::span<const std::byte>> spans;
    spans.reserve(snapshot.columns.size());
    for (const Column& c : snapshot.columns) {
      if (c.rows != snapshot.rows) {
        throw StoreError(StoreErrc::kInvalidArgument, path,
                         "column '" + c.spec.name + "' has " +
                             std::to_string(c.rows) + " rows, snapshot has " +
                             std::to_string(snapshot.rows));
      }
      spans.emplace_back(c.data.data(), c.data.size());
    }
    writer.append_shard(spans, snapshot.rows);
  }
  writer.finish(snapshot.metadata);
}

// ---- reader ----------------------------------------------------------

SnapshotReader::SnapshotReader(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (!file_) {
    throw StoreError(StoreErrc::kCannotOpen, path_,
                     "cannot open snapshot for reading");
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    throw StoreError(StoreErrc::kIoError, path_, "seek failed");
  }
  const long end = std::ftell(file_);
  if (end < 0) {
    throw StoreError(StoreErrc::kIoError, path_, "tell failed");
  }
  file_bytes_ = static_cast<std::uint64_t>(end);
  load_header();
  probe_footer();
}

SnapshotReader::~SnapshotReader() {
  if (file_) std::fclose(file_);
}

bool SnapshotReader::read_at(std::uint64_t offset, void* out, std::size_t n) {
  if (n > file_bytes_ || offset > file_bytes_ - n) return false;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return false;
  }
  return std::fread(out, 1, n, file_) == n;
}

void SnapshotReader::load_header() {
  // Fixed prelude first, so magic/version/endianness produce their own
  // errors before the variable-length part is trusted at all.
  std::byte prelude[16];
  if (!read_at(0, prelude, sizeof prelude)) {
    throw StoreError(StoreErrc::kTruncated, path_,
                     "file too short for a snapshot header (" +
                         std::to_string(file_bytes_) + " bytes)");
  }
  BufReader pre{prelude, sizeof prelude};
  const std::uint64_t magic = pre.u64();
  if (magic != kFileMagic) {
    throw StoreError(StoreErrc::kBadMagic, path_,
                     "not a resmodel snapshot (bad magic)");
  }
  const std::uint32_t version = pre.u32();
  if (version > kFormatVersion) {
    throw StoreError(StoreErrc::kBadVersion, path_,
                     "written by future format version " +
                         std::to_string(version) + " (this reader supports <= " +
                         std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t endian = pre.u32();
  if (endian != kEndianTag) {
    throw StoreError(StoreErrc::kBadEndianness, path_,
                     endian == 0x04030201u
                         ? "byte-swapped endian tag: file written on an "
                           "incompatible (big-endian) host"
                         : "corrupt endian tag");
  }

  // Variable part: read generously (schemas are small), parse, verify CRC.
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(file_bytes_ - 16, 1u << 20));
  std::vector<std::byte> rest(want);
  if (want > 0 && !read_at(16, rest.data(), want)) {
    throw StoreError(StoreErrc::kIoError, path_, "header read failed");
  }
  BufReader r{rest.data(), rest.size()};
  kind_ = r.str(kMaxKindLen);
  const std::uint32_t columns = r.u32();
  if (!r.ok() || columns == 0 || columns > kMaxColumns) {
    throw StoreError(StoreErrc::kHeaderCorrupt, path_,
                     "malformed header (kind/column count)");
  }
  schema_.clear();
  for (std::uint32_t i = 0; i < columns; ++i) {
    ColumnSpec spec;
    spec.name = r.str(kMaxColumnName);
    const std::uint32_t dtype = r.u32();
    if (!r.ok() || dtype > static_cast<std::uint32_t>(DType::kU8)) {
      throw StoreError(StoreErrc::kHeaderCorrupt, path_,
                       "malformed header (column " + std::to_string(i) + ")");
    }
    spec.dtype = static_cast<DType>(dtype);
    schema_.push_back(std::move(spec));
  }
  const std::size_t parsed = rest.size() - r.remaining;
  const std::uint32_t stored_crc = r.u32();
  if (!r.ok()) {
    throw StoreError(StoreErrc::kTruncated, path_,
                     "file ends inside the header");
  }
  // The header CRC covers the prelude plus the parsed variable part.
  std::uint32_t crc = util::crc32c(prelude, sizeof prelude);
  crc = util::crc32c(rest.data(), parsed, crc);
  if (crc != stored_crc) {
    throw StoreError(StoreErrc::kHeaderCorrupt, path_,
                     "header checksum mismatch");
  }
  data_begin_ = 16 + parsed + 4;
}

void SnapshotReader::probe_footer() {
  footer_intact_ = false;
  if (file_bytes_ < data_begin_ + kTrailerBytes) {
    footer_errc_ = StoreErrc::kTruncated;
    footer_detail_ = "no room for a trailer: file truncated";
    return;
  }
  std::byte trailer[kTrailerBytes];
  if (!read_at(file_bytes_ - kTrailerBytes, trailer, kTrailerBytes)) {
    footer_errc_ = StoreErrc::kIoError;
    footer_detail_ = "trailer read failed";
    return;
  }
  BufReader t{trailer, kTrailerBytes};
  const std::uint64_t footer_offset = t.u64();
  const std::uint32_t footer_len = t.u32();
  const std::uint32_t footer_crc = t.u32();
  const std::uint64_t magic = t.u64();
  if (magic != kTrailerMagic) {
    footer_errc_ = StoreErrc::kTruncated;
    footer_detail_ =
        "trailer magic missing: file truncated or never finished";
    return;
  }
  if (footer_offset < data_begin_ ||
      footer_offset > file_bytes_ - kTrailerBytes ||
      footer_len != file_bytes_ - kTrailerBytes - footer_offset) {
    footer_errc_ = StoreErrc::kFooterCorrupt;
    footer_detail_ = "trailer frame inconsistent with file size";
    return;
  }
  std::vector<std::byte> footer(footer_len);
  if (footer_len > 0 && !read_at(footer_offset, footer.data(), footer_len)) {
    footer_errc_ = StoreErrc::kIoError;
    footer_detail_ = "footer read failed";
    return;
  }
  if (util::crc32c(footer.data(), footer.size()) != footer_crc) {
    footer_errc_ = StoreErrc::kFooterCorrupt;
    footer_detail_ = "footer checksum mismatch";
    return;
  }
  BufReader r{footer.data(), footer.size()};
  const std::uint64_t rows = r.u64();
  const std::uint64_t shards = r.u64();
  const std::uint32_t block_count = r.u32();
  const std::uint32_t metadata_count = r.u32();
  // A CRC is no MAC: a forged footer can carry a valid checksum. Bound
  // the index by the bytes that actually hold it before reserving.
  if (!r.ok() || block_count > r.remaining / kFooterEntryBytes) {
    footer_errc_ = StoreErrc::kFooterCorrupt;
    footer_detail_ = "footer block count exceeds the footer's length";
    return;
  }
  std::vector<BlockRef> blocks;
  blocks.reserve(block_count);
  // Every column's blocks must add up to the footer's row total, which
  // sizes read_all's and read_recovering's column buffers.
  std::vector<std::uint64_t> column_rows(schema_.size(), 0);
  bool sane = metadata_count <= kMaxMetadataEntries;
  for (std::uint32_t i = 0; sane && i < block_count; ++i) {
    BlockRef b;
    b.column = r.u32();
    b.shard = r.u64();
    b.offset = r.u64();
    b.rows = r.u64();
    b.payload_bytes = r.u64();
    b.crc = r.u32();
    sane = r.ok() && b.column < schema_.size() && b.shard < shards &&
           b.offset >= data_begin_ &&
           block_fits(b.offset, b.payload_bytes, footer_offset) &&
           payload_holds_rows(b.payload_bytes, b.rows,
                              schema_[b.column].dtype) &&
           b.rows <= rows - column_rows[b.column];
    if (sane) column_rows[b.column] += b.rows;
    blocks.push_back(b);
  }
  for (std::size_t c = 0; sane && c < column_rows.size(); ++c) {
    sane = column_rows[c] == rows;
  }
  std::vector<std::pair<std::string, std::string>> metadata;
  for (std::uint32_t i = 0; sane && i < metadata_count; ++i) {
    std::string key = r.str(kMaxMetadataLen);
    std::string value = r.str(kMaxMetadataLen);
    sane = r.ok();
    metadata.emplace_back(std::move(key), std::move(value));
  }
  if (!sane) {
    footer_errc_ = StoreErrc::kFooterCorrupt;
    footer_detail_ = "footer parses but its entries are out of bounds";
    return;
  }
  rows_ = rows;
  shards_ = shards;
  blocks_ = std::move(blocks);
  metadata_ = std::move(metadata);
  footer_intact_ = true;
}

std::uint64_t SnapshotReader::rows() const {
  if (!footer_intact_) {
    throw StoreError(footer_errc_, path_, footer_detail_);
  }
  return rows_;
}

std::uint64_t SnapshotReader::shard_count() const {
  if (!footer_intact_) {
    throw StoreError(footer_errc_, path_, footer_detail_);
  }
  return shards_;
}

std::vector<std::pair<std::string, std::string>> SnapshotReader::metadata()
    const {
  if (!footer_intact_) {
    throw StoreError(footer_errc_, path_, footer_detail_);
  }
  return metadata_;
}

bool SnapshotReader::block_payload(const BlockRef& ref,
                                   std::vector<std::byte>& out) {
  std::byte header[kBlockHeaderBytes];
  if (!read_at(ref.offset, header, sizeof header)) return false;
  const auto expected = encode_block_header(ref.column, ref.shard, ref.rows,
                                            ref.payload_bytes);
  if (std::memcmp(header, expected.data(), sizeof header) != 0) return false;
  if (!block_fits(ref.offset, ref.payload_bytes, file_bytes_)) return false;
  out.resize(ref.payload_bytes);
  if (ref.payload_bytes > 0 &&
      !read_at(ref.offset + kBlockHeaderBytes, out.data(),
               ref.payload_bytes)) {
    return false;
  }
  std::byte tail[8];
  if (!read_at(ref.offset + kBlockHeaderBytes + ref.payload_bytes, tail,
               sizeof tail)) {
    return false;
  }
  BufReader t{tail, sizeof tail};
  const std::uint32_t stored = t.u32();
  const std::uint32_t complement = t.u32();
  if (complement != ~stored) return false;
  std::uint32_t crc = util::crc32c(header, sizeof header);
  crc = util::crc32c(out.data(), out.size(), crc);
  return crc == stored && crc == ref.crc;
}

Snapshot SnapshotReader::read_all() {
  if (!footer_intact_) {
    throw StoreError(footer_errc_, path_, footer_detail_);
  }
  Snapshot snap;
  snap.kind = kind_;
  snap.rows = rows_;
  snap.metadata = metadata_;
  snap.columns.resize(schema_.size());
  std::vector<std::uint64_t> write_offsets(schema_.size(), 0);
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    snap.columns[i].spec = schema_[i];
    snap.columns[i].rows = rows_;
    snap.columns[i].data.resize(rows_ * dtype_size(schema_[i].dtype));
  }
  std::vector<std::byte> payload;
  for (const BlockRef& b : blocks_) {
    if (!block_payload(b, payload)) {
      throw StoreError(StoreErrc::kBlockCorrupt, path_,
                       "column '" + schema_[b.column].name + "' shard " +
                           std::to_string(b.shard) +
                           " fails its checksum or is truncated");
    }
    Column& col = snap.columns[b.column];
    if (write_offsets[b.column] + payload.size() > col.data.size()) {
      throw StoreError(StoreErrc::kFooterCorrupt, path_,
                       "block index overflows column '" +
                           schema_[b.column].name + "'");
    }
    std::memcpy(col.data.data() + write_offsets[b.column], payload.data(),
                payload.size());
    write_offsets[b.column] += payload.size();
  }
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (write_offsets[i] != snap.columns[i].data.size()) {
      throw StoreError(StoreErrc::kFooterCorrupt, path_,
                       "block index leaves column '" + schema_[i].name +
                           "' short");
    }
  }
  return snap;
}

Snapshot SnapshotReader::read_shard(std::uint64_t shard) {
  if (!footer_intact_) {
    throw StoreError(footer_errc_, path_, footer_detail_);
  }
  if (shard >= shards_) {
    throw StoreError(StoreErrc::kInvalidArgument, path_,
                     "shard " + std::to_string(shard) + " out of range (" +
                         std::to_string(shards_) + " shards)");
  }
  Snapshot snap;
  snap.kind = kind_;
  snap.metadata = metadata_;
  snap.columns.resize(schema_.size());
  std::vector<bool> seen(schema_.size(), false);
  std::vector<std::byte> payload;
  for (const BlockRef& b : blocks_) {
    if (b.shard != shard) continue;
    if (!block_payload(b, payload)) {
      throw StoreError(StoreErrc::kBlockCorrupt, path_,
                       "column '" + schema_[b.column].name + "' shard " +
                           std::to_string(b.shard) +
                           " fails its checksum or is truncated");
    }
    Column& col = snap.columns[b.column];
    col.spec = schema_[b.column];
    col.rows = b.rows;
    col.data = payload;
    seen[b.column] = true;
    snap.rows = b.rows;
  }
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (!seen[i]) {
      throw StoreError(StoreErrc::kFooterCorrupt, path_,
                       "shard " + std::to_string(shard) +
                           " lacks a block for column '" + schema_[i].name +
                           "'");
    }
  }
  return snap;
}

std::vector<SnapshotReader::BlockRef> SnapshotReader::scan_blocks(
    ReadReport& report) {
  // Footerless fallback: blocks were written sequentially from the end
  // of the header, each self-delimiting. Walk forward while everything
  // checks out; the first inconsistent header or failed checksum ends
  // the scan (a torn tail takes everything after it — the remaining
  // bytes are accounted, not guessed at).
  std::vector<BlockRef> recovered;
  std::uint64_t offset = data_begin_;
  std::uint64_t expected_shard = 0;
  std::uint32_t expected_column = 0;
  std::uint64_t shard_rows = 0;
  std::vector<std::byte> payload;
  while (block_fits(offset, 0, file_bytes_)) {
    std::byte header[kBlockHeaderBytes];
    if (!read_at(offset, header, sizeof header)) break;
    BufReader h{header, sizeof header};
    BlockRef b;
    const std::uint32_t magic = h.u32();
    b.column = h.u32();
    b.shard = h.u64();
    b.rows = h.u64();
    b.payload_bytes = h.u64();
    b.offset = offset;
    if (magic != kBlockMagic || b.column != expected_column ||
        b.shard != expected_shard || b.rows == 0 ||
        !payload_holds_rows(b.payload_bytes, b.rows,
                            schema_[b.column].dtype) ||
        (b.column > 0 && b.rows != shard_rows) ||
        !block_fits(offset, b.payload_bytes, file_bytes_)) {
      break;
    }
    std::byte tail[8];
    if (!read_at(offset + kBlockHeaderBytes + b.payload_bytes, tail, 8)) {
      break;
    }
    BufReader t{tail, sizeof tail};
    b.crc = t.u32();
    const std::uint32_t complement = t.u32();
    if (complement != ~b.crc) break;
    if (!block_payload(b, payload)) break;
    if (b.column == 0) shard_rows = b.rows;
    recovered.push_back(b);
    offset += kBlockHeaderBytes + b.payload_bytes + 8;
    if (++expected_column == schema_.size()) {
      expected_column = 0;
      ++expected_shard;
    }
  }
  // An incomplete shard (scan died mid-shard) is dropped: its recovered
  // blocks are real, but materializing a shard some columns lack would
  // misalign rows across columns. They are accounted as lost instead.
  while (!recovered.empty() && recovered.back().shard == expected_shard) {
    const BlockRef& b = recovered.back();
    report.lost.push_back(
        {b.column, b.shard, b.rows, StoreErrc::kTruncated});
    report.rows_lost += b.rows;
    offset = b.offset;
    recovered.pop_back();
  }
  report.tail_bytes_unscanned = file_bytes_ - offset;
  return recovered;
}

Snapshot SnapshotReader::read_recovering(ReadReport& report) {
  report = ReadReport{};
  report.footer_intact = footer_intact_;

  std::vector<BlockRef> blocks;
  std::uint64_t total_rows = 0;
  std::uint64_t shard_count = 0;
  if (footer_intact_) {
    blocks = blocks_;
    total_rows = rows_;
    shard_count = shards_;
    report.blocks_expected = blocks.size();
  } else {
    report.complete = false;  // totals unknowable without the footer
    blocks = scan_blocks(report);
    report.blocks_expected = blocks.size() + report.lost.size();
    for (const BlockRef& b : blocks) {
      if (b.column == 0) {
        total_rows += b.rows;
        ++shard_count;
      }
    }
  }

  Snapshot snap;
  snap.kind = kind_;
  snap.rows = total_rows;
  if (footer_intact_) snap.metadata = metadata_;
  snap.columns.resize(schema_.size());
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    snap.columns[i].spec = schema_[i];
    snap.columns[i].rows = total_rows;
    snap.columns[i].data.assign(total_rows * dtype_size(schema_[i].dtype),
                                std::byte{0});
  }

  std::vector<std::uint64_t> write_offsets(schema_.size(), 0);
  std::vector<std::byte> payload;
  for (const BlockRef& b : blocks) {
    Column& col = snap.columns[b.column];
    const std::uint64_t at = write_offsets[b.column];
    if (at + b.payload_bytes > col.data.size()) {
      // Footer lied about the layout (corrupt but checksum-colliding
      // entries are astronomically unlikely; a defensive bound, not a
      // code path tests can reach deterministically).
      report.complete = false;
      report.lost.push_back({b.column, b.shard, b.rows,
                             StoreErrc::kFooterCorrupt});
      report.rows_lost += b.rows;
      continue;
    }
    if (block_payload(b, payload)) {
      std::memcpy(col.data.data() + at, payload.data(), payload.size());
      ++report.blocks_loaded;
    } else {
      report.complete = false;
      report.lost.push_back({b.column, b.shard, b.rows,
                             StoreErrc::kBlockCorrupt});
      report.rows_lost += b.rows;
      // The hole stays zero-filled; the report is the record of it.
    }
    write_offsets[b.column] = at + b.payload_bytes;
  }
  (void)shard_count;
  return snap;
}

SnapshotReader::VerifyResult SnapshotReader::verify() {
  VerifyResult result;
  result.report.footer_intact = footer_intact_;
  result.column_digests.assign(schema_.size(), 0);
  result.column_intact.assign(schema_.size(), footer_intact_);

  std::vector<BlockRef> blocks;
  if (footer_intact_) {
    blocks = blocks_;
    result.report.blocks_expected = blocks.size();
  } else {
    result.report.complete = false;
    blocks = scan_blocks(result.report);
    result.report.blocks_expected =
        blocks.size() + result.report.lost.size();
    for (const LostBlock& lost : result.report.lost) {
      result.column_intact[lost.column] = false;
    }
  }

  std::vector<std::byte> payload;
  for (const BlockRef& b : blocks) {
    if (block_payload(b, payload)) {
      ++result.report.blocks_loaded;
      result.column_digests[b.column] = util::crc32c(
          payload.data(), payload.size(), result.column_digests[b.column]);
    } else {
      result.report.complete = false;
      result.report.lost.push_back({b.column, b.shard, b.rows,
                                    StoreErrc::kBlockCorrupt});
      result.report.rows_lost += b.rows;
      result.column_intact[b.column] = false;
    }
  }
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (!result.column_intact[i]) result.column_digests[i] = 0;
  }
  return result;
}

}  // namespace resmodel::store
