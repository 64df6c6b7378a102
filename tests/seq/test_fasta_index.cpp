// Tests for the FASTA byte-offset index.
#include <gtest/gtest.h>

#include <cstdio>

#include "seq/dbgen.h"
#include "seq/fasta.h"
#include "seq/fasta_index.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::seq {
namespace {

class FastaIndexTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs cases as concurrent processes, so a
  // shared name lets one case rewrite or delete another's input.
  std::string path_ =
      ::testing::TempDir() + "/swdual_fai_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".fa";
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<Sequence> write_sample(std::size_t count, std::size_t width) {
    DatabaseProfile profile{"fai", count, 10, 500, 5.0, 0.6, 13};
    auto records = generate_database(profile);
    records[0].description = "first record with description";
    write_fasta_file(path_, records, width);
    return records;
  }
};

TEST_F(FastaIndexTest, IndexCountsAndLengths) {
  const auto records = write_sample(25, 60);
  const FastaIndex index(path_, AlphabetKind::kProtein);
  ASSERT_EQ(index.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(index.length(i), records[i].length()) << "record " << i;
    EXPECT_EQ(index.id(i), records[i].id);
  }
}

TEST_F(FastaIndexTest, RandomReadsRoundTrip) {
  const auto records = write_sample(40, 50);
  const FastaIndex index(path_, AlphabetKind::kProtein);
  Rng rng(3);
  for (int rep = 0; rep < 30; ++rep) {
    const auto i = static_cast<std::size_t>(rng.below(records.size()));
    EXPECT_EQ(index.read(i), records[i]) << "record " << i;
  }
  // Sequential edge reads.
  EXPECT_EQ(index.read(0), records[0]);
  EXPECT_EQ(index.read(records.size() - 1), records.back());
}

TEST_F(FastaIndexTest, NarrowWrapWidths) {
  const auto records = write_sample(10, 7);  // heavily wrapped lines
  const FastaIndex index(path_, AlphabetKind::kProtein);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(index.read(i), records[i]);
  }
}

TEST_F(FastaIndexTest, MissingFileThrows) {
  EXPECT_THROW(FastaIndex("/no/such.fa", AlphabetKind::kProtein), IoError);
}

TEST_F(FastaIndexTest, MalformedLeadingResiduesThrow) {
  std::ofstream out(path_);
  out << "ACGT\n>late\nACGT\n";
  out.close();
  EXPECT_THROW(FastaIndex(path_, AlphabetKind::kDna), IoError);
}

TEST_F(FastaIndexTest, OutOfRangeRejected) {
  write_sample(3, 60);
  const FastaIndex index(path_, AlphabetKind::kProtein);
  EXPECT_THROW(index.read(3), InvalidArgument);
  EXPECT_THROW(index.length(3), InvalidArgument);
  EXPECT_THROW(index.id(3), InvalidArgument);
}

}  // namespace
}  // namespace swdual::seq
