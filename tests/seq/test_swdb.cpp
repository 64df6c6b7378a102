// Unit tests for the SWDB binary random-access format (paper §IV), read
// through its one reader, MappedSwdb.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>

#include "seq/alphabet.h"
#include "seq/dbgen.h"
#include "seq/fasta.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::seq {
namespace {

class SwdbTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs cases as concurrent processes, and
  // some cases mmap the file (a concurrent truncate of a mapped file is a
  // SIGBUS, not a clean failure).
  std::string path_ =
      ::testing::TempDir() + "/swdual_swdb_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".swdb";
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<Sequence> sample_records() {
    std::vector<Sequence> records;
    records.push_back(
        Sequence::from_text("r0", "first", AlphabetKind::kProtein, "MKVLAW"));
    records.push_back(
        Sequence::from_text("r1", "", AlphabetKind::kProtein, "A"));
    records.push_back(Sequence::from_text("r2", "long one",
                                          AlphabetKind::kProtein,
                                          std::string(1000, 'K')));
    return records;
  }
};

TEST_F(SwdbTest, RoundTripsAllRecords) {
  const auto records = sample_records();
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), records.size());
  EXPECT_EQ(db.alphabet(), AlphabetKind::kProtein);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(db.record(i), records[i]) << "record " << i;
  }
}

TEST_F(SwdbTest, RandomAccessOutOfOrder) {
  const auto records = sample_records();
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  // Read in reverse and repeatedly — any order must work.
  EXPECT_EQ(db.record(2), records[2]);
  EXPECT_EQ(db.record(0), records[0]);
  EXPECT_EQ(db.record(2), records[2]);
  EXPECT_EQ(db.record(1), records[1]);
}

TEST_F(SwdbTest, LengthsAvailableWithoutReadingData) {
  const auto records = sample_records();
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  EXPECT_EQ(db.length(0), 6u);
  EXPECT_EQ(db.length(1), 1u);
  EXPECT_EQ(db.length(2), 1000u);
  EXPECT_EQ(db.total_residues(), 1007u);
}

TEST_F(SwdbTest, EmptyDatabaseRoundTrips) {
  for (const AlphabetKind alphabet :
       {AlphabetKind::kDna, AlphabetKind::kProtein}) {
    write_swdb(path_, {}, alphabet);
    const MappedSwdb db(path_);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.alphabet(), alphabet);
    EXPECT_EQ(db.total_residues(), 0u);
    EXPECT_TRUE(db.residue_views().empty());
  }
}

TEST_F(SwdbTest, IndexOutOfRangeThrows) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  EXPECT_THROW(db.length(3), InvalidArgument);
  EXPECT_THROW(db.record(3), InvalidArgument);
}

TEST_F(SwdbTest, MixedAlphabetRejected) {
  auto records = sample_records();
  records.push_back(Sequence::from_text("dna", "", AlphabetKind::kDna, "ACGT"));
  EXPECT_THROW(write_swdb(path_, records, AlphabetKind::kProtein),
               InvalidArgument);
}

TEST_F(SwdbTest, BadMagicRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTSWDBDATA-----------------------------";
  out.close();
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, MissingFileThrows) {
  EXPECT_THROW(MappedSwdb db("/no/such/db.swdb"), IoError);
}

TEST_F(SwdbTest, TruncatedFileRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  // Chop off the tail (index) and expect a structured failure.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, FastaConversionPreservesContent) {
  const std::string fasta_path = ::testing::TempDir() + "/swdual_conv.fa";
  const auto records = sample_records();
  write_fasta_file(fasta_path, records);
  write_swdb(path_, read_fasta_file(fasta_path, AlphabetKind::kProtein),
             AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(db.record(i), records[i]);
  }
  std::remove(fasta_path.c_str());
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Appends `value` little-endian in `width` bytes.
void put_le(std::string& bytes, std::uint64_t value, int width) {
  for (int b = 0; b < width; ++b) {
    bytes += static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

/// Overwrites `width` bytes at `offset` with `value`, little-endian.
void patch_le(std::string& bytes, std::size_t offset, std::uint64_t value,
              int width) {
  std::string field;
  put_le(field, value, width);
  bytes.replace(offset, field.size(), field);
}

/// Opening `path` must throw an IoError whose message contains `fragment`.
void expect_open_fails(const std::string& path, const std::string& fragment) {
  try {
    const MappedSwdb db(path);
    ADD_FAILURE() << path << " opened";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

TEST_F(SwdbTest, WritesTheVersion3LayoutByteForByte) {
  const std::vector<Sequence> records = {
      Sequence::from_text("r0", "first", AlphabetKind::kDna, "ACGTA"),
      Sequence::from_text("e", "no residues", AlphabetKind::kDna, ""),
      Sequence::from_text("r2", "", AlphabetKind::kDna, std::string(70, 'G')),
  };
  write_swdb(path_, records, AlphabetKind::kDna);

  // DNA codes: A 0, C 1, G 2, T 3, wildcard N 4.
  std::string expected = "SWDB";
  put_le(expected, 3, 4);  // version
  put_le(expected, 0, 1);  // alphabet: DNA
  put_le(expected, 0, 3);  // zero bytes
  put_le(expected, 3, 8);  // record count
  using Entry = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  for (const auto& [residues, id, description] :
       {Entry{5, 2, 5}, Entry{0, 1, 11}, Entry{70, 2, 0}}) {
    put_le(expected, residues, 4);
    put_le(expected, id, 2);
    put_le(expected, description, 2);
  }
  expected += "r0first" "eno residues" "r2";  // bytes [44, 65)
  expected += std::string(128 - 65, '\0');    // residues start at 128
  expected += std::string("\x00\x01\x02\x03\x00", 5) +
              std::string(64 - 5, '\x04');  // r0; "e" takes no bytes
  expected += std::string(70, '\x02') + std::string(128 - 70, '\x04');
  ASSERT_EQ(expected.size(), 320u);
  EXPECT_EQ(read_file_bytes(path_), expected);
  EXPECT_EQ(kSwdbVersion, 3u);
}

/// A version-1 file, the layout without the aligned section: a 28-byte
/// header (no section offset), two records, their index.
std::string version1_file() {
  std::string bytes = "SWDB";
  put_le(bytes, 1, 4);  // version
  put_le(bytes, static_cast<std::uint8_t>(AlphabetKind::kProtein), 1);
  put_le(bytes, 0, 3);   // padding
  put_le(bytes, 2, 8);   // record count
  put_le(bytes, 36, 8);  // index offset: 28 header bytes + 5 + 3 record bytes
  bytes += std::string("\x01\x02\x03", 3) + "r0";
  bytes += std::string("\x04", 1) + "r1";
  for (const auto& [offset, length] :
       {std::pair<std::uint64_t, std::uint64_t>{28, 3}, {33, 1}}) {
    put_le(bytes, offset, 8);
    put_le(bytes, length, 4);
    put_le(bytes, 2, 2);  // id length
    put_le(bytes, 0, 2);  // description length
  }
  return bytes;
}

TEST_F(SwdbTest, Version1FileRejected) {
  write_file_bytes(path_, version1_file());
  expect_open_fails(path_, "unsupported SWDB version 1");
}

/// A version-2 file, the layout with every residue stored twice: a 36-byte
/// header (index and section offsets), two records, their index, then the
/// aligned section (its magic, block, data offset and size, per record an
/// offset and a padded length, the longest-first order) and its
/// 64-byte-aligned data.
std::string version2_file() {
  std::string bytes = "SWDB";
  put_le(bytes, 2, 4);  // version
  put_le(bytes, static_cast<std::uint8_t>(AlphabetKind::kProtein), 1);
  put_le(bytes, 0, 3);   // padding
  put_le(bytes, 2, 8);   // record count
  put_le(bytes, 44, 8);  // index offset: 36 header bytes + 5 + 3 record bytes
  put_le(bytes, 76, 8);  // section offset: the index's 2 × 16 bytes later
  bytes += std::string("\x01\x02\x03", 3) + "r0";
  bytes += std::string("\x04", 1) + "r1";
  for (const auto& [offset, length] :
       {std::pair<std::uint64_t, std::uint64_t>{36, 3}, {41, 1}}) {
    put_le(bytes, offset, 8);
    put_le(bytes, length, 4);
    put_le(bytes, 2, 2);  // id length
    put_le(bytes, 0, 2);  // description length
  }
  bytes += {'S', 'W', 'V', '2'};  // the section's magic
  put_le(bytes, 64, 4);          // block
  put_le(bytes, 192, 8);  // data offset: the tables end at 132
  put_le(bytes, 128, 8);  // data bytes
  for (const std::uint64_t rel : {std::uint64_t{0}, std::uint64_t{64}}) {
    put_le(bytes, rel, 8);
    put_le(bytes, 64, 4);  // padded length
  }
  put_le(bytes, 0, 4);  // lane order: r0 (3 residues), then r1 (1)
  put_le(bytes, 1, 4);
  bytes += std::string(192 - 132, '\0');
  const char wildcard = 22;  // protein X
  bytes += std::string("\x01\x02\x03", 3) + std::string(61, wildcard);
  bytes += std::string("\x04", 1) + std::string(63, wildcard);
  return bytes;
}

TEST_F(SwdbTest, Version2FileRejected) {
  write_file_bytes(path_, version2_file());
  expect_open_fails(path_, "unsupported SWDB version 2");
}

TEST_F(SwdbTest, UnknownVersionRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  bytes[4] = 4;  // the version field's low byte
  write_file_bytes(path_, bytes);
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, LengthsSpanMatchesIndex) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  const auto lengths = db.lengths();
  ASSERT_EQ(lengths.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(lengths[i], db.length(i)) << "record " << i;
  }
}

TEST_F(SwdbTest, TruncatedResidueSectionRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const std::string bytes = read_file_bytes(path_);
  // The residue section is the file tail; chopping a few bytes off must be
  // a structured failure, never a silently short residue span.
  write_file_bytes(path_, bytes.substr(0, bytes.size() - 7));
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, TrailingBytesRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  write_file_bytes(path_, read_file_bytes(path_) + std::string(64, '\x16'));
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, CountPastTheEndOfTheFileRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  // One index entry more than the bytes after the 20-byte header hold.
  patch_le(bytes, 12, (bytes.size() - 20) / 8 + 1, 8);
  write_file_bytes(path_, bytes);
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

// The sample file: a 20-byte header, then one 8-byte index entry per record
// (residue count at +0, id length at +4, description length at +6).

TEST_F(SwdbTest, TextPastTheEndOfTheFileRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  patch_le(bytes, 20 + 2 * 8 + 4, 65535, 2);  // record 2's id length
  write_file_bytes(path_, bytes);
  expect_open_fails(path_, "corrupt SWDB index");
}

TEST_F(SwdbTest, ResiduesPastTheEndOfTheFileRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  patch_le(bytes, 20, 0xffffffff, 4);  // record 0's residue count
  write_file_bytes(path_, bytes);
  expect_open_fails(path_, "corrupt SWDB index");
}

TEST_F(SwdbTest, CorruptAlphabetRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  bytes[8] = 3;  // the alphabet byte: DNA 0, RNA 1, protein 2
  write_file_bytes(path_, bytes);
  expect_open_fails(path_, "alphabet");
}

TEST_F(SwdbTest, EmptyFileRejected) {
  write_file_bytes(path_, "");
  expect_open_fails(path_, "bad magic");
}

TEST_F(SwdbTest, TruncatedHeaderRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  // The first 19 of the header's 20 bytes: the count is one byte short.
  write_file_bytes(path_, read_file_bytes(path_).substr(0, 19));
  expect_open_fails(path_, "truncated");
}

TEST_F(SwdbTest, UnwritablePathThrows) {
  EXPECT_THROW(write_swdb("/no/such/dir/db.swdb", sample_records(),
                          AlphabetKind::kProtein),
               IoError);
}

TEST_F(SwdbTest, RewriteReplacesALongerFile) {
  // The reader refuses trailing bytes, so a rewrite must not leave the
  // longer file's tail behind.
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const std::vector<Sequence> shorter = {sample_records()[1]};
  write_swdb(path_, shorter, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.record(0), shorter[0]);
}

TEST_F(SwdbTest, BlockMultiplesTakeNoPadding) {
  // Header 20 + index 2 × 8 + text 28 bytes end on the first block
  // boundary, and both residue counts are block multiples: the file is
  // exactly 64 + 64 + 128 bytes, residues back to back.
  const std::vector<Sequence> records = {
      Sequence::from_text("a", "thirteen char", AlphabetKind::kProtein,
                          std::string(64, 'M')),
      Sequence::from_text("b", "thirteen char", AlphabetKind::kProtein,
                          std::string(128, 'W')),
  };
  write_swdb(path_, records, AlphabetKind::kProtein);
  EXPECT_EQ(read_file_bytes(path_).size(), 256u);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.record(0), records[0]);
  EXPECT_EQ(db.record(1), records[1]);
  EXPECT_EQ(db.residues(1).data(), db.residues(0).data() + 64);
}

TEST_F(SwdbTest, EmptyFieldsRoundTrip) {
  // Empty ids, descriptions and residue lists take no bytes, so neighbours
  // share offsets; every record must still read back as written.
  const std::vector<Sequence> records = {
      Sequence::from_text("", "", AlphabetKind::kProtein, ""),
      Sequence::from_text("a", "", AlphabetKind::kProtein, "MK"),
      Sequence::from_text("", "only a description", AlphabetKind::kProtein,
                          ""),
      Sequence::from_text("b", "d", AlphabetKind::kProtein, ""),
      Sequence::from_text("", "", AlphabetKind::kProtein, "W"),
  };
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), records.size());
  EXPECT_EQ(db.total_residues(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(db.record(i), records[i]) << "record " << i;
  }
}

TEST_F(SwdbTest, RnaDatabaseRoundTripsPaddedWithItsWildcard) {
  const std::vector<Sequence> records = {
      Sequence::from_text("r0", "", AlphabetKind::kRna, "ACGU"),
      Sequence::from_text("r1", "poly-U", AlphabetKind::kRna,
                          std::string(65, 'U')),
  };
  write_swdb(path_, records, AlphabetKind::kRna);
  const MappedSwdb db(path_);
  EXPECT_EQ(db.alphabet(), AlphabetKind::kRna);
  ASSERT_EQ(db.size(), records.size());
  const std::uint8_t wildcard =
      Alphabet::get(AlphabetKind::kRna).wildcard_code();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(db.record(i), records[i]) << "record " << i;
    const auto span = db.residues(i);
    const std::size_t padded =
        (span.size() + kSwdbBlock - 1) / kSwdbBlock * kSwdbBlock;
    for (std::size_t b = span.size(); b < padded; ++b) {
      ASSERT_EQ(span.data()[b], wildcard) << "record " << i << " pad " << b;
    }
  }
}

TEST_F(SwdbTest, OverlongIdOrDescriptionRejectedBeforeTheFileIsCreated) {
  for (const bool long_id : {true, false}) {
    std::remove(path_.c_str());
    auto records = sample_records();
    (long_id ? records[0].id : records[0].description) =
        std::string(65536, 'x');
    EXPECT_THROW(write_swdb(path_, records, AlphabetKind::kProtein),
                 InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(path_)) << "long id: " << long_id;
  }
}

TEST_F(SwdbTest, LongestIdAndDescriptionRoundTrip) {
  auto records = sample_records();
  records[1].id = std::string(65535, 'i');
  records[1].description = std::string(65535, 'd');
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(db.record(i), records[i]) << "record " << i;
  }
}

TEST_F(SwdbTest, LargeGeneratedDatabaseRoundTrips) {
  DatabaseProfile profile{"t", 500, 10, 400, 5.0, 0.5, 77};
  const auto records = generate_database(profile);
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  ASSERT_EQ(db.size(), 500u);
  Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    const auto idx = static_cast<std::size_t>(rng.below(500));
    EXPECT_EQ(db.record(idx), records[idx]);
  }
}

}  // namespace
}  // namespace swdual::seq
