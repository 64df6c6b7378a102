// Unit tests for the SWDB binary random-access format (paper §IV), read
// through its one reader, MappedSwdb.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

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
  write_swdb(path_, {}, AlphabetKind::kDna);
  const MappedSwdb db(path_);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.alphabet(), AlphabetKind::kDna);
  EXPECT_TRUE(db.residue_views().empty());
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
  const std::size_t n =
      convert_fasta_to_swdb(fasta_path, path_, AlphabetKind::kProtein);
  EXPECT_EQ(n, records.size());
  const MappedSwdb db(path_);
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

TEST_F(SwdbTest, DefaultWriteIsVersion2) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  // Magic, then the little-endian version field.
  EXPECT_EQ(read_file_bytes(path_).substr(0, 8),
            std::string("SWDB\x02\0\0\0", 8));
  EXPECT_EQ(kSwdbVersion, 2u);
}

/// A version-1 file, the layout without the aligned section: a 28-byte
/// header (no section offset), two records, their index.
std::string version1_file() {
  std::string bytes = "SWDB";
  const auto put = [&bytes](std::uint64_t value, int width) {
    for (int b = 0; b < width; ++b) {
      bytes += static_cast<char>((value >> (8 * b)) & 0xff);
    }
  };
  put(1, 4);  // version
  put(static_cast<std::uint8_t>(AlphabetKind::kProtein), 1);
  put(0, 3);   // padding
  put(2, 8);   // record count
  put(36, 8);  // index offset: 28 header bytes + 5 + 3 record bytes
  bytes += std::string("\x01\x02\x03", 3) + "r0";
  bytes += std::string("\x04", 1) + "r1";
  for (const auto& [offset, length] :
       {std::pair<std::uint64_t, std::uint64_t>{28, 3}, {33, 1}}) {
    put(offset, 8);
    put(length, 4);
    put(2, 2);  // id length
    put(0, 2);  // description length
  }
  return bytes;
}

TEST_F(SwdbTest, Version1FileRejected) {
  write_file_bytes(path_, version1_file());
  try {
    const MappedSwdb db(path_);
    FAIL() << "a version-1 file opened";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported SWDB version 1"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SwdbTest, UnknownVersionRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  bytes[4] = 3;  // the version field's low byte
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

TEST_F(SwdbTest, LaneOrderIsLongestFirst) {
  const auto records = sample_records();  // lengths 6, 1, 1000
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  const auto order = db.lane_order();
  ASSERT_EQ(order.size(), records.size());
  // A permutation, lengths non-increasing along it.
  std::vector<bool> seen(records.size(), false);
  for (const std::uint32_t id : order) {
    ASSERT_LT(id, records.size());
    EXPECT_FALSE(seen[id]) << "duplicate id " << id;
    seen[id] = true;
  }
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GE(db.length(order[k - 1]), db.length(order[k]))
        << "position " << k;
  }
  EXPECT_EQ(order[0], 2u);  // the 1000-residue record leads
}

TEST_F(SwdbTest, LaneOrderBreaksLengthTiesById) {
  std::vector<Sequence> records;
  for (int i = 0; i < 6; ++i) {
    records.push_back(Sequence::from_text("t" + std::to_string(i), "",
                                          AlphabetKind::kProtein, "MKVLAW"));
  }
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  const auto order = db.lane_order();
  ASSERT_EQ(order.size(), records.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], k);  // equal lengths keep file order
  }
}

TEST_F(SwdbTest, TruncatedV2SectionRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const std::string bytes = read_file_bytes(path_);
  // The aligned section is the file tail; chopping a few bytes off must be
  // a structured failure, never a silently short residue span.
  write_file_bytes(path_, bytes.substr(0, bytes.size() - 7));
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, CorruptV2MagicRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::string bytes = read_file_bytes(path_);
  // The section offset lives at bytes [28, 36) of the header
  // (little-endian).
  std::uint64_t v2_offset = 0;
  for (int b = 7; b >= 0; --b) {
    v2_offset = (v2_offset << 8) |
                static_cast<std::uint8_t>(bytes[28 + static_cast<size_t>(b)]);
  }
  ASSERT_LT(v2_offset + 4, bytes.size());
  bytes[v2_offset] = 'X';  // smash the "SWV2" magic
  write_file_bytes(path_, bytes);
  EXPECT_THROW(MappedSwdb db(path_), IoError);
}

TEST_F(SwdbTest, EmptyVersion2DatabaseRoundTrips) {
  write_swdb(path_, {}, AlphabetKind::kProtein);
  const MappedSwdb db(path_);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.total_residues(), 0u);
  EXPECT_TRUE(db.lane_order().empty());
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
