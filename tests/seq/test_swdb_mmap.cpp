// Unit tests for the mmap-backed zero-copy SWDB reader: the mapped view
// must give back exactly the records written, and residues must come back
// 64-byte aligned and wildcard padded, ready for direct SIMD consumption.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "seq/alphabet.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/error.h"

namespace swdual::seq {
namespace {

class SwdbMmapTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs cases as concurrent processes, and a
  // shared path would let one process truncate a file another has mapped
  // (SIGBUS on the next page touch).
  std::string path_ =
      ::testing::TempDir() + "/swdual_swdb_mmap_" +
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

  /// The core contract: the file read back is the records written — same
  /// residues, ids, descriptions and lengths.
  void expect_matches_records(const std::string& path,
                              const std::vector<Sequence>& records) {
    const MappedSwdb mapped(path);
    ASSERT_EQ(mapped.size(), records.size());
    EXPECT_EQ(mapped.alphabet(), AlphabetKind::kProtein);
    std::uint64_t total = 0;
    for (const Sequence& record : records) total += record.length();
    EXPECT_EQ(mapped.total_residues(), total);

    for (std::size_t i = 0; i < records.size(); ++i) {
      const Sequence& written = records[i];
      EXPECT_EQ(mapped.length(i), written.length()) << "record " << i;
      EXPECT_EQ(mapped.lengths()[i], written.length()) << "record " << i;
      EXPECT_EQ(mapped.record(i), written) << "record " << i;
      const auto span = mapped.residues(i);
      ASSERT_EQ(span.size(), written.residues.size()) << "record " << i;
      for (std::size_t b = 0; b < span.size(); ++b) {
        ASSERT_EQ(span[b], written.residues[b])
            << "record " << i << " byte " << b;
      }
      EXPECT_EQ(mapped.id(i), written.id);
      EXPECT_EQ(mapped.description(i), written.description);
    }
  }
};

TEST_F(SwdbMmapTest, MatchesRecordsWritten) {
  const auto records = sample_records();
  write_swdb(path_, records, AlphabetKind::kProtein);
  expect_matches_records(path_, records);
}

TEST_F(SwdbMmapTest, MatchesRecordsWrittenOnGeneratedDatabase) {
  DatabaseProfile profile{"t", 300, 5, 250, 5.0, 0.5, 99};
  const auto records = generate_database(profile);
  write_swdb(path_, records, AlphabetKind::kProtein);
  expect_matches_records(path_, records);
}

TEST_F(SwdbMmapTest, ResiduesAre64ByteAligned) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const MappedSwdb mapped(path_);
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    const auto span = mapped.residues(i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % kSwdbBlock,
              0u)
        << "record " << i;
  }
}

TEST_F(SwdbMmapTest, PadBytesAreWildcard) {
  const auto records = sample_records();
  write_swdb(path_, records, AlphabetKind::kProtein);
  const MappedSwdb mapped(path_);
  const std::uint8_t wildcard =
      Alphabet::get(AlphabetKind::kProtein).wildcard_code();
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    const auto span = mapped.residues(i);
    const std::size_t padded =
        (span.size() + kSwdbBlock - 1) / kSwdbBlock * kSwdbBlock;
    // The bytes between the logical end and the block boundary belong to
    // this record's reservation; they must hold the alphabet wildcard so a
    // kernel over-reading a lane tail scores them deterministically.
    for (std::size_t b = span.size(); b < padded; ++b) {
      ASSERT_EQ(span.data()[b], wildcard) << "record " << i << " pad " << b;
    }
  }
}

TEST_F(SwdbMmapTest, ResidueViewsMatchPerRecordSpans) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const MappedSwdb mapped(path_);
  const auto views = mapped.residue_views();
  ASSERT_EQ(views.size(), mapped.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].data(), mapped.residues(i).data());
    EXPECT_EQ(views[i].size(), mapped.residues(i).size());
  }
}

TEST_F(SwdbMmapTest, MissingFileThrows) {
  EXPECT_THROW(MappedSwdb mapped("/no/such/db.swdb"), IoError);
}

TEST_F(SwdbMmapTest, BadMagicRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTSWDBDATA-----------------------------";
  out.close();
  EXPECT_THROW(MappedSwdb mapped(path_), IoError);
}

TEST_F(SwdbMmapTest, TruncatedIndexRejected) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(MappedSwdb mapped(path_), IoError);
}

TEST_F(SwdbMmapTest, OutOfRangeIndexThrows) {
  write_swdb(path_, sample_records(), AlphabetKind::kProtein);
  const MappedSwdb mapped(path_);
  EXPECT_THROW(mapped.residues(3), InvalidArgument);
  EXPECT_THROW(mapped.record(3), InvalidArgument);
  EXPECT_THROW(mapped.length(3), InvalidArgument);
}

}  // namespace
}  // namespace swdual::seq
