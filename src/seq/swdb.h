// SWDB: the binary random-access sequence database format from §IV of the
// paper.
//
// FASTA files are sequential text, so reading "the i-th sequence" requires
// scanning from the start. The paper introduces a simple binary format with
// a few extra fields so both the master and the workers can read sequences
// at any position directly and pre-size memory allocations (all lengths are
// known up front). This is our realization of that format, version 3:
//
//   [header]    "SWDB" | version u32 (3) | alphabet u8 | 3 zero bytes |
//               count u64
//   [index]     per record: residue count u32, id length u16,
//               description length u16
//   [text]      per record: its id bytes, then its description bytes
//   [pad]       zero bytes up to the next multiple of kSwdbBlock
//   [residues]  per record: its residue codes, then the alphabet's wildcard
//               code up to a multiple of kSwdbBlock
//
// Every residue is stored once, pre-encoded and pre-blocked, so the hot
// search loop reads it straight out of the file. The file stores no offset:
// every record's text and residue offsets are prefix sums of the index's
// lengths. All integers little-endian.
//
// One reader serves the format: MappedSwdb maps the whole file read-only
// and hands out zero-copy spans into the mapping — one mapping shared by
// every engine/shard/thread (the kernel page cache holds a single physical
// copy). A file of any other version, such as a version-1 or version-2
// file, is an IoError at open.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "seq/sequence.h"

namespace swdual::seq {

/// The SWDB container version this library reads and writes.
inline constexpr std::uint32_t kSwdbVersion = 3;

/// Alignment/padding granularity of the residue section, in bytes: every
/// record's residues start on a 64-byte (cache-line, widest SIMD register)
/// boundary and are padded to a multiple of it.
inline constexpr std::size_t kSwdbBlock = 64;

/// Write all records to an SWDB file, front to back in one pass. Throws
/// IoError on failure and InvalidArgument, before creating the file, if
/// records disagree on alphabet or overflow a length field.
void write_swdb(const std::string& path, const std::vector<Sequence>& records,
                AlphabetKind alphabet);

/// mmap-backed zero-copy SWDB reader.
///
/// Maps the whole file read-only once; residues(), id() and description()
/// return views *into the mapping* — no per-record allocation, no decode,
/// and one physical copy of the database no matter how many engines,
/// shards or threads read it concurrently (the OS page cache backs every
/// mapping of the same file with the same pages).
///
/// Lifetime rules: every span/string_view handed out is invalidated when
/// the MappedSwdb is destroyed. Hold the database in a
/// std::shared_ptr<const MappedSwdb> that outlives all engines built over
/// it (ParallelSearchEngine, serve::QueryService and master::run_search
/// only borrow the views). The object is immutable after construction, so
/// concurrent reads need no synchronization.
///
/// residues(i) points into the residue section: 64-byte aligned, padded
/// with the wildcard code to a block multiple, ready for SIMD consumption.
/// Off POSIX the file is read into one buffer instead of mapped; the views
/// then point into that buffer.
class MappedSwdb {
 public:
  /// Maps and validates the file; throws IoError on any structural problem
  /// (missing file, bad magic, unsupported version, an index that runs past
  /// the file, a file that does not end where its residue section does).
  explicit MappedSwdb(const std::string& path);
  ~MappedSwdb();

  MappedSwdb(const MappedSwdb&) = delete;
  MappedSwdb& operator=(const MappedSwdb&) = delete;

  std::size_t size() const { return entries_.size(); }
  AlphabetKind alphabet() const { return alphabet_; }

  /// Residue count of record i, from the index section — no data read, the
  /// property that makes task-cost estimation cheap for the scheduler.
  std::size_t length(std::size_t i) const;

  /// Sum of all residue counts (cell-count denominators for GCUPS).
  std::uint64_t total_residues() const { return total_residues_; }

  /// All residue counts in record order, straight from the index section.
  std::span<const std::uint32_t> lengths() const { return lengths_; }

  /// Residue codes of record i, zero-copy out of the mapping.
  std::span<const std::uint8_t> residues(std::size_t i) const;

  std::string_view id(std::size_t i) const;
  std::string_view description(std::size_t i) const;

  /// Materialize one record (copies; for interop/tests, not the hot path).
  Sequence record(std::size_t i) const;

  /// Zero-copy views of every record's residues in record order — exactly
  /// an align::DbView, built without touching the data pages.
  std::vector<std::span<const std::uint8_t>> residue_views() const;

 private:
  struct Entry {
    std::uint64_t text_offset = 0;     ///< id, then description; from data_
    std::uint64_t residue_offset = 0;  ///< from residues_
    std::uint16_t id_length = 0;
    std::uint16_t desc_length = 0;
  };

  const std::uint8_t* data_ = nullptr;  ///< mapping (or fallback buffer)
  const std::uint8_t* residues_ = nullptr;  ///< the residue section
  std::size_t file_size_ = 0;
  bool mmapped_ = false;
  std::vector<std::uint8_t> fallback_;  ///< used when mmap is unavailable

  AlphabetKind alphabet_ = AlphabetKind::kProtein;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> lengths_;
  std::uint64_t total_residues_ = 0;
};

}  // namespace swdual::seq
