// Fuzz-style robustness tests: the FASTA parser and the SWDB reader
// (MappedSwdb) must either succeed or throw IoError on arbitrary inputs —
// never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "seq/fasta.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::seq {
namespace {

TEST(FastaFuzz, RandomPrintableSoup) {
  Rng rng(2024);
  const std::string charset =
      ">;ACGTNMKVLW \t\r\nacgt0123456789!@#$%^&*()_+-=[]{}|";
  for (int rep = 0; rep < 200; ++rep) {
    std::string soup;
    const auto len = rng.below(400);
    for (std::uint64_t i = 0; i < len; ++i) {
      soup += charset[rng.below(charset.size())];
    }
    std::istringstream in(soup);
    try {
      const auto records = read_fasta(in, AlphabetKind::kProtein);
      // Success: every record must decode without surprises.
      for (const auto& record : records) {
        EXPECT_EQ(record.to_text().size(), record.length());
      }
    } catch (const IoError&) {
      // Acceptable outcome for malformed input.
    }
  }
}

TEST(FastaFuzz, RandomBinaryGarbage) {
  Rng rng(777);
  for (int rep = 0; rep < 100; ++rep) {
    std::string soup;
    const auto len = rng.below(300);
    for (std::uint64_t i = 0; i < len; ++i) {
      soup += static_cast<char>(rng.below(256));
    }
    std::istringstream in(soup);
    try {
      read_fasta(in, AlphabetKind::kDna);
    } catch (const IoError&) {
    }
  }
}

TEST(SwdbFuzz, RandomFilesRejectedCleanly) {
  Rng rng(31415);
  const std::string path = ::testing::TempDir() + "/swdual_fuzz.swdb";
  for (int rep = 0; rep < 60; ++rep) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const auto len = rng.below(200);
      for (std::uint64_t i = 0; i < len; ++i) {
        out.put(static_cast<char>(rng.below(256)));
      }
    }
    try {
      const MappedSwdb db(path);
      // A random file passing header checks is essentially impossible, but
      // if it does, reads must still be bounds-checked.
      if (db.size() > 0) {
        (void)db.record(0);
      }
    } catch (const IoError&) {
    } catch (const InvalidArgument&) {
    }
  }
  std::remove(path.c_str());
}

TEST(SwdbFuzz, BitFlippedValidFileNeverCrashes) {
  // Start from a valid SWDB and flip one byte at a time across the file;
  // the reader must produce either correct data or a clean exception.
  const std::string path = ::testing::TempDir() + "/swdual_flip.swdb";
  std::vector<Sequence> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(Sequence::from_text(
        "r" + std::to_string(i), "", AlphabetKind::kProtein, "MKVLAWERTY"));
  }
  write_swdb(path, records, AlphabetKind::kProtein);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  Rng rng(5);
  for (int rep = 0; rep < 80; ++rep) {
    std::string copy = bytes;
    copy[rng.below(copy.size())] ^=
        static_cast<char>(1 + rng.below(255));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
    }
    try {
      const MappedSwdb db(path);
      for (std::size_t i = 0; i < db.size(); ++i) {
        (void)db.record(i);
      }
    } catch (const IoError&) {
    } catch (const InvalidArgument&) {
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swdual::seq
