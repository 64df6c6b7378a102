#include "seq/swdb.h"

#include <array>
#include <cstring>
#include <fstream>
#include <limits>

#include "seq/alphabet.h"
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
/// Header: magic + version + alphabet(+pad) + count.
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 4 + 8;
/// Index entry: residue count + id length + description length.
constexpr std::uint64_t kIndexEntryBytes = 4 + 2 + 2;

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
};

/// Reads and checks the header, leaving `cur` at the index.
ParsedHeader parse_header(ByteCursor& cur, std::uint64_t file_size,
                          const std::string& path) {
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
  // Validate against the actual file size before allocating anything —
  // a corrupt count must fail cleanly, not OOM.
  if (h.count > (file_size - kHeaderBytes) / kIndexEntryBytes) {
    throw IoError("corrupt SWDB header (index past the end of the file): " +
                  path);
  }
  return h;
}

std::uint64_t align_up(std::uint64_t value, std::uint64_t block) {
  return (value + block - 1) / block * block;
}

}  // namespace

void write_swdb(const std::string& path, const std::vector<Sequence>& records,
                AlphabetKind alphabet) {
  std::uint64_t text_end = kHeaderBytes + records.size() * kIndexEntryBytes;
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
    text_end += record.id.size() + record.description.size();
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

  for (const Sequence& record : records) {
    write_le<std::uint32_t>(out, static_cast<std::uint32_t>(record.length()));
    write_le<std::uint16_t>(out,
                            static_cast<std::uint16_t>(record.id.size()));
    write_le<std::uint16_t>(
        out, static_cast<std::uint16_t>(record.description.size()));
  }

  for (const Sequence& record : records) {
    out.write(record.id.data(),
              static_cast<std::streamsize>(record.id.size()));
    out.write(record.description.data(),
              static_cast<std::streamsize>(record.description.size()));
  }

  // Residues start block-aligned and are padded with the wildcard code to a
  // block multiple, so a mapped reader hands the bytes straight to the SIMD
  // kernels.
  const std::string gap(
      static_cast<std::size_t>(align_up(text_end, kSwdbBlock) - text_end),
      '\0');
  out.write(gap.data(), static_cast<std::streamsize>(gap.size()));

  const std::uint8_t wildcard = Alphabet::get(alphabet).wildcard_code();
  for (const Sequence& record : records) {
    out.write(reinterpret_cast<const char*>(record.residues.data()),
              static_cast<std::streamsize>(record.residues.size()));
    const std::uint64_t padded = align_up(record.length(), kSwdbBlock);
    const std::string pad(
        static_cast<std::size_t>(padded - record.length()),
        static_cast<char>(wildcard));
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
  }

  out.flush();
  if (!out) throw IoError("SWDB write failed: " + path);
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
    ByteCursor cur(data_, file_size_, path);
    const ParsedHeader header = parse_header(cur, file_size_, path);
    alphabet_ = header.alphabet;

    // One pass over the index: every offset is a prefix sum of the lengths.
    // Both sums are checked against the file size as they grow, so neither
    // can overflow.
    entries_.resize(static_cast<std::size_t>(header.count));
    lengths_.resize(entries_.size());
    std::uint64_t text_end = kHeaderBytes + header.count * kIndexEntryBytes;
    std::uint64_t residue_bytes = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& entry = entries_[i];
      lengths_[i] = cur.get<std::uint32_t>();
      entry.id_length = cur.get<std::uint16_t>();
      entry.desc_length = cur.get<std::uint16_t>();
      entry.text_offset = text_end;
      entry.residue_offset = residue_bytes;
      text_end += entry.id_length + entry.desc_length;
      residue_bytes += align_up(lengths_[i], kSwdbBlock);
      if (text_end > file_size_ || residue_bytes > file_size_) {
        throw IoError("corrupt SWDB index (records past the end of the "
                      "file): " + path);
      }
      total_residues_ += lengths_[i];
    }

    // The residue section is the file's tail: a truncated file and one with
    // trailing bytes both end somewhere else.
    const std::uint64_t residue_offset = align_up(text_end, kSwdbBlock);
    if (residue_offset > file_size_ ||
        file_size_ - residue_offset != residue_bytes) {
      throw IoError("SWDB file is " + std::to_string(file_size_) +
                    " bytes, its residue section ends at byte " +
                    std::to_string(residue_offset + residue_bytes) + ": " +
                    path);
    }
    residues_ = data_ + residue_offset;
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
  return lengths_[i];
}

std::span<const std::uint8_t> MappedSwdb::residues(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  return {residues_ + entries_[i].residue_offset, lengths_[i]};
}

std::string_view MappedSwdb::id(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  const Entry& entry = entries_[i];
  return {reinterpret_cast<const char*>(data_ + entry.text_offset),
          entry.id_length};
}

std::string_view MappedSwdb::description(std::size_t i) const {
  SWDUAL_REQUIRE(i < entries_.size(), "SWDB record index out of range");
  const Entry& entry = entries_[i];
  return {reinterpret_cast<const char*>(data_ + entry.text_offset +
                                        entry.id_length),
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
