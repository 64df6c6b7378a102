#include "seq/swdb.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>

#include "seq/alphabet.h"
#include "seq/fasta.h"
#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SWDUAL_HAVE_MMAP 1
#endif

namespace swdual::seq {

namespace {

constexpr std::array<char, 4> kMagic = {'S', 'W', 'D', 'B'};
constexpr std::array<char, 4> kV2Magic = {'S', 'W', 'V', '2'};
/// Header: magic + version + alphabet(+pad) + count + index offset +
/// aligned-section offset.
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8;
constexpr std::uint64_t kIndexEntryBytes = 8 + 4 + 2 + 2;
/// Aligned section: magic + block + data offset + data size ...
constexpr std::uint64_t kV2SectionHeaderBytes = 4 + 4 + 8 + 8;
/// ... then per record a blocked offset + padded length, then the order.
constexpr std::uint64_t kV2EntryBytes = 8 + 4;
constexpr std::uint64_t kV2OrderEntryBytes = 4;

template <typename T>
void write_le(std::ostream& out, T value) {
  static_assert(std::is_unsigned_v<T>);
  std::array<char, sizeof(T)> bytes;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes.data(), bytes.size());
}

/// Bounds-checked little-endian cursor over in-memory bytes; every parse
/// step reads through it, so a short structure is an IoError, never an
/// out-of-bounds read.
class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* begin, std::size_t size,
             const std::string& path)
      : p_(begin), end_(begin + size), path_(path) {}

  template <typename T>
  T get() {
    static_assert(std::is_unsigned_v<T>);
    if (static_cast<std::size_t>(end_ - p_) < sizeof(T)) {
      throw IoError("truncated SWDB structure: " + path_);
    }
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value = static_cast<T>(value | static_cast<T>(p_[i]) << (8 * i));
    }
    p_ += sizeof(T);
    return value;
  }

  bool match(const std::array<char, 4>& magic) {
    if (static_cast<std::size_t>(end_ - p_) < magic.size()) return false;
    const bool ok = std::memcmp(p_, magic.data(), magic.size()) == 0;
    p_ += magic.size();
    return ok;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  const std::string& path_;
};

struct ParsedHeader {
  AlphabetKind alphabet = AlphabetKind::kProtein;
  std::uint64_t count = 0;
  std::uint64_t index_offset = 0;
  std::uint64_t v2_offset = 0;
};

ParsedHeader parse_header(const std::uint8_t* bytes, std::uint64_t file_size,
                          const std::string& path) {
  ByteCursor cur(bytes, static_cast<std::size_t>(file_size), path);
  if (!cur.match(kMagic)) {
    throw IoError("not an SWDB file (bad magic): " + path);
  }
  const auto version = cur.get<std::uint32_t>();
  if (version != kSwdbVersion) {
    throw IoError("unsupported SWDB version " + std::to_string(version) +
                  " in " + path);
  }
  ParsedHeader h;
  const auto alphabet_byte = cur.get<std::uint8_t>();
  if (alphabet_byte > 2) {
    throw IoError("corrupt SWDB alphabet field in " + path);
  }
  h.alphabet = static_cast<AlphabetKind>(alphabet_byte);
  cur.get<std::uint8_t>();
  cur.get<std::uint8_t>();
  cur.get<std::uint8_t>();
  h.count = cur.get<std::uint64_t>();
  h.index_offset = cur.get<std::uint64_t>();
  h.v2_offset = cur.get<std::uint64_t>();
  // Validate against the actual file size before allocating anything —
  // corrupt counts/offsets must fail cleanly, not OOM.
  if (h.index_offset > file_size ||
      h.count > (file_size - h.index_offset) / kIndexEntryBytes) {
    throw IoError("corrupt SWDB header (index out of bounds): " + path);
  }
  return h;
}

struct RawEntry {
  std::uint64_t offset = 0;
  std::uint32_t seq_length = 0;
  std::uint16_t id_length = 0;
  std::uint16_t desc_length = 0;
};

/// Parse + validate the index section (count entries starting at `bytes`).
/// `data_end` is the first byte past the record section (== index offset).
std::vector<RawEntry> parse_index(const std::uint8_t* bytes,
                                  std::uint64_t count,
                                  std::uint64_t data_end,
                                  const std::string& path) {
  ByteCursor cur(bytes, static_cast<std::size_t>(count * kIndexEntryBytes),
                 path);
  std::vector<RawEntry> entries(static_cast<std::size_t>(count));
  for (RawEntry& entry : entries) {
    entry.offset = cur.get<std::uint64_t>();
    entry.seq_length = cur.get<std::uint32_t>();
    entry.id_length = cur.get<std::uint16_t>();
    entry.desc_length = cur.get<std::uint16_t>();
    const std::uint64_t record_end =
        entry.offset + entry.seq_length + entry.id_length + entry.desc_length;
    if (entry.offset < kHeaderBytes || record_end > data_end) {
      throw IoError("corrupt SWDB index entry: " + path);
    }
  }
  return entries;
}

struct ParsedV2 {
  std::uint32_t block = 0;
  std::uint64_t data_offset = 0;  ///< absolute, block-aligned
  std::uint64_t data_bytes = 0;
  std::vector<std::uint64_t> rel_offsets;  ///< per record, into the data blob
  std::vector<std::uint32_t> padded_lengths;
  std::vector<std::uint32_t> order;  ///< lane-batch index (longest first)
};

/// Parse + validate the aligned section's tables. `bytes` holds at least
/// the section header + entry/order tables (checked by the caller).
ParsedV2 parse_v2_tables(const std::uint8_t* bytes, std::uint64_t avail,
                         std::uint64_t v2_offset, std::uint64_t file_size,
                         std::span<const std::uint32_t> lengths,
                         const std::string& path) {
  const std::uint64_t count = lengths.size();
  ByteCursor cur(bytes, static_cast<std::size_t>(avail), path);
  if (!cur.match(kV2Magic)) {
    throw IoError("corrupt SWDB v2 section (bad magic): " + path);
  }
  ParsedV2 v2;
  v2.block = cur.get<std::uint32_t>();
  if (v2.block == 0 || (v2.block & (v2.block - 1)) != 0 || v2.block > 4096) {
    throw IoError("corrupt SWDB v2 section (bad block size): " + path);
  }
  v2.data_offset = cur.get<std::uint64_t>();
  v2.data_bytes = cur.get<std::uint64_t>();
  const std::uint64_t tables_end = v2_offset + kV2SectionHeaderBytes +
                                   count * (kV2EntryBytes + kV2OrderEntryBytes);
  if (v2.data_offset < tables_end || v2.data_offset % v2.block != 0 ||
      v2.data_offset > file_size || v2.data_bytes > file_size - v2.data_offset) {
    throw IoError("corrupt SWDB v2 section (data out of bounds): " + path);
  }

  v2.rel_offsets.resize(static_cast<std::size_t>(count));
  v2.padded_lengths.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    v2.rel_offsets[i] = cur.get<std::uint64_t>();
    v2.padded_lengths[i] = cur.get<std::uint32_t>();
    const std::uint64_t padded = v2.padded_lengths[i];
    const bool aligned =
        v2.rel_offsets[i] % v2.block == 0 && padded % v2.block == 0;
    const bool sized = padded >= lengths[i] &&
                       padded - lengths[i] < v2.block &&
                       v2.rel_offsets[i] <= v2.data_bytes &&
                       padded <= v2.data_bytes - v2.rel_offsets[i];
    if (!aligned || !sized) {
      throw IoError("corrupt SWDB v2 entry: " + path);
    }
  }

  // The lane order must be a permutation visiting records longest-first —
  // kernels trust it blindly, so a corrupt one is a structural error.
  v2.order.resize(static_cast<std::size_t>(count));
  std::vector<bool> seen(static_cast<std::size_t>(count), false);
  std::uint32_t prev_length = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto id = cur.get<std::uint32_t>();
    if (id >= count || seen[id] || (k > 0 && lengths[id] > prev_length)) {
      throw IoError("corrupt SWDB v2 lane order: " + path);
    }
    seen[id] = true;
    prev_length = lengths[id];
    v2.order[k] = id;
  }
  return v2;
}

/// The lane-batch order the writer stores: record ids sorted longest-first,
/// ties broken by id (stable sort).
std::vector<std::uint32_t> lane_order_from_lengths(
    std::span<const std::uint32_t> lengths) {
  std::vector<std::uint32_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lengths[a] > lengths[b];
                   });
  return order;
}

std::uint64_t align_up(std::uint64_t value, std::uint64_t block) {
  return (value + block - 1) / block * block;
}

}  // namespace

void write_swdb(const std::string& path, const std::vector<Sequence>& records,
                AlphabetKind alphabet) {
  std::uint64_t index_offset = kHeaderBytes;
  std::vector<std::uint32_t> lengths;
  lengths.reserve(records.size());
  for (const Sequence& record : records) {
    SWDUAL_REQUIRE(record.alphabet == alphabet,
                   "record '" + record.id + "' has a different alphabet");
    SWDUAL_REQUIRE(record.id.size() <= std::numeric_limits<std::uint16_t>::max(),
                   "record id too long: " + record.id);
    SWDUAL_REQUIRE(
        record.description.size() <= std::numeric_limits<std::uint16_t>::max(),
        "record description too long: " + record.id);
    SWDUAL_REQUIRE(
        record.length() <= std::numeric_limits<std::uint32_t>::max(),
        "record too long: " + record.id);
    index_offset +=
        record.length() + record.id.size() + record.description.size();
    lengths.push_back(static_cast<std::uint32_t>(record.length()));
  }
  // Every offset follows from the lengths, so the file is written front to
  // back in one pass.
  const std::uint64_t v2_offset =
      index_offset + records.size() * kIndexEntryBytes;
  const std::uint64_t tables_end =
      v2_offset + kV2SectionHeaderBytes +
      records.size() * (kV2EntryBytes + kV2OrderEntryBytes);
  const std::uint64_t data_offset = align_up(tables_end, kSwdbV2Block);
  std::uint64_t data_bytes = 0;
  for (const std::uint32_t length : lengths) {
    data_bytes += align_up(length, kSwdbV2Block);
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open SWDB for writing: " + path);

  out.write(kMagic.data(), kMagic.size());
  write_le<std::uint32_t>(out, kSwdbVersion);
  write_le<std::uint8_t>(out, static_cast<std::uint8_t>(alphabet));
  write_le<std::uint8_t>(out, 0);
  write_le<std::uint8_t>(out, 0);
  write_le<std::uint8_t>(out, 0);
  write_le<std::uint64_t>(out, records.size());
  write_le<std::uint64_t>(out, index_offset);
  write_le<std::uint64_t>(out, v2_offset);

  for (const Sequence& record : records) {
    out.write(reinterpret_cast<const char*>(record.residues.data()),
              static_cast<std::streamsize>(record.residues.size()));
    out.write(record.id.data(),
              static_cast<std::streamsize>(record.id.size()));
    out.write(record.description.data(),
              static_cast<std::streamsize>(record.description.size()));
  }

  std::uint64_t offset = kHeaderBytes;
  for (const Sequence& record : records) {
    write_le<std::uint64_t>(out, offset);
    write_le<std::uint32_t>(out, static_cast<std::uint32_t>(record.length()));
    write_le<std::uint16_t>(out,
                            static_cast<std::uint16_t>(record.id.size()));
    write_le<std::uint16_t>(
        out, static_cast<std::uint16_t>(record.description.size()));
    offset += record.length() + record.id.size() + record.description.size();
  }

  // Aligned section: every record's residues again, but padded with the
  // wildcard code to a block multiple and starting block-aligned, so a
  // mapped reader hands the bytes straight to the SIMD kernels.
  out.write(kV2Magic.data(), kV2Magic.size());
  write_le<std::uint32_t>(out, static_cast<std::uint32_t>(kSwdbV2Block));
  write_le<std::uint64_t>(out, data_offset);
  write_le<std::uint64_t>(out, data_bytes);

  std::uint64_t rel = 0;
  for (const std::uint32_t length : lengths) {
    const std::uint64_t padded = align_up(length, kSwdbV2Block);
    write_le<std::uint64_t>(out, rel);
    write_le<std::uint32_t>(out, static_cast<std::uint32_t>(padded));
    rel += padded;
  }
  for (const std::uint32_t id : lane_order_from_lengths(lengths)) {
    write_le<std::uint32_t>(out, id);
  }

  const std::string gap(static_cast<std::size_t>(data_offset - tables_end),
                        '\0');
  out.write(gap.data(), static_cast<std::streamsize>(gap.size()));

  const std::uint8_t wildcard = Alphabet::get(alphabet).wildcard_code();
  for (const Sequence& record : records) {
    out.write(reinterpret_cast<const char*>(record.residues.data()),
              static_cast<std::streamsize>(record.residues.size()));
    const std::uint64_t padded = align_up(record.length(), kSwdbV2Block);
    const std::string pad(
        static_cast<std::size_t>(padded - record.length()),
        static_cast<char>(wildcard));
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
  }

  out.flush();
  if (!out) throw IoError("SWDB write failed: " + path);
}

std::size_t convert_fasta_to_swdb(const std::string& fasta_path,
                                  const std::string& swdb_path,
                                  AlphabetKind alphabet) {
  const std::vector<Sequence> records = read_fasta_file(fasta_path, alphabet);
  write_swdb(swdb_path, records, alphabet);
  return records.size();
}

MappedSwdb::MappedSwdb(const std::string& path) {
#if SWDUAL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open SWDB file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError("cannot stat SWDB file: " + path);
  }
  file_size_ = static_cast<std::size_t>(st.st_size);
  if (file_size_ > 0) {
    void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) throw IoError("cannot mmap SWDB file: " + path);
    data_ = static_cast<const std::uint8_t*>(map);
    mmapped_ = true;
  } else {
    ::close(fd);
  }
#else
  // No mmap on this platform: fall back to reading the file into one
  // buffer. Still a single shared copy per MappedSwdb, just not lazily
  // paged by the OS.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open SWDB file: " + path);
  in.seekg(0, std::ios::end);
  fallback_.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(fallback_.data()),
          static_cast<std::streamsize>(fallback_.size()));
  if (!in && !fallback_.empty()) {
    throw IoError("cannot read SWDB file: " + path);
  }
  data_ = fallback_.data();
  file_size_ = fallback_.size();
#endif

  try {
    const ParsedHeader header = parse_header(data_, file_size_, path);
    alphabet_ = header.alphabet;

    const std::vector<RawEntry> raw = parse_index(
        data_ + header.index_offset, header.count, header.index_offset, path);
    entries_.reserve(raw.size());
    lengths_.reserve(raw.size());
    for (const RawEntry& entry : raw) {
      Entry e;
      e.record_offset = entry.offset;
      e.seq_length = entry.seq_length;
      e.id_length = entry.id_length;
      e.desc_length = entry.desc_length;
      entries_.push_back(e);
      lengths_.push_back(entry.seq_length);
      total_residues_ += entry.seq_length;
    }

    const std::uint64_t tables_size =
        kV2SectionHeaderBytes +
        header.count * (kV2EntryBytes + kV2OrderEntryBytes);
    if (header.v2_offset < header.index_offset ||
        header.v2_offset > file_size_ ||
        tables_size > file_size_ - header.v2_offset) {
      throw IoError("corrupt SWDB v2 section (out of bounds): " + path);
    }
    ParsedV2 v2 = parse_v2_tables(data_ + header.v2_offset, tables_size,
                                  header.v2_offset, file_size_, lengths_, path);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      entries_[i].residue_offset = v2.data_offset + v2.rel_offsets[i];
    }
    lane_order_ = std::move(v2.order);
  } catch (...) {
#if SWDUAL_HAVE_MMAP
    if (mmapped_) ::munmap(const_cast<std::uint8_t*>(data_), file_size_);
#endif
    throw;
  }
}

MappedSwdb::~MappedSwdb() {
#if SWDUAL_HAVE_MMAP
  if (mmapped_) ::munmap(const_cast<std::uint8_t*>(data_), file_size_);
#endif
}

std::size_t MappedSwdb::length(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  return entries_[i].seq_length;
}

std::span<const std::uint8_t> MappedSwdb::residues(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  const Entry& entry = entries_[i];
  return {data_ + entry.residue_offset, entry.seq_length};
}

std::string_view MappedSwdb::id(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  const Entry& entry = entries_[i];
  return {reinterpret_cast<const char*>(data_ + entry.record_offset +
                                        entry.seq_length),
          entry.id_length};
}

std::string_view MappedSwdb::description(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  const Entry& entry = entries_[i];
  return {reinterpret_cast<const char*>(data_ + entry.record_offset +
                                        entry.seq_length + entry.id_length),
          entry.desc_length};
}

Sequence MappedSwdb::record(std::size_t i) const {
  const std::span<const std::uint8_t> res = residues(i);
  Sequence record;
  record.alphabet = alphabet_;
  record.residues.assign(res.begin(), res.end());
  record.id = std::string(id(i));
  record.description = std::string(description(i));
  return record;
}

std::vector<std::span<const std::uint8_t>> MappedSwdb::residue_views() const {
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    views.push_back(residues(i));
  }
  return views;
}

}  // namespace swdual::seq
