// §IV — the binary random-access format vs FASTA.
//
// The paper motivates SWDB with two properties: direct reads of sequences
// "in any position inside the file" and simplified memory allocation from
// known lengths. This harness measures both against FASTA on a synthetic
// database: full-scan parse time, k random record reads, and length-only
// index access. The SWDB column reads through seq::MappedSwdb, the reader
// every engine uses: a full scan opens the file and materializes every
// record, a random read materializes one record, and the length sweep reads
// only the index. The last row gives both files' sizes (the indexed FASTA
// reads the same file and keeps its index in memory).
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "seq/dbgen.h"
#include "seq/fasta.h"
#include "seq/fasta_index.h"
#include "seq/swdb.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace swdual;
  const std::size_t num_records = argc > 1 ? std::stoul(argv[1]) : 20000;
  bench::banner("§IV: binary random-access format (SWDB) vs FASTA",
                std::to_string(num_records) + " synthetic records");

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string fasta_path = dir + "/swdual_bench_db.fa";
  const std::string swdb_path = dir + "/swdual_bench_db.swdb";

  seq::DatabaseProfile profile{"bench", num_records, 50, 2000, 5.7, 0.65, 5};
  const auto records = seq::generate_database(profile);
  seq::write_fasta_file(fasta_path, records);
  seq::write_swdb(swdb_path, records, seq::AlphabetKind::kProtein);

  // Times print in milliseconds: SWDB reads take well under one.
  const auto ms = [](double seconds) {
    return TextTable::fmt(seconds * 1e3, 3);
  };
  TextTable table;
  table.set_header(
      {"operation", "FASTA (parse)", "FASTA (indexed)", "SWDB",
       "SWDB speedup vs parse"});

  // Full sequential load.
  WallTimer timer;
  const auto fasta_all =
      seq::read_fasta_file(fasta_path, seq::AlphabetKind::kProtein);
  const double fasta_scan = timer.seconds();
  timer.reset();
  const seq::FastaIndex fai(fasta_path, seq::AlphabetKind::kProtein);
  const double fai_build = timer.seconds();
  timer.reset();
  const seq::MappedSwdb db(swdb_path);
  {
    std::size_t checksum = 0;
    for (std::size_t i = 0; i < db.size(); ++i) {
      checksum += db.record(i).length();
    }
    std::printf("(swdb scan checksum %zu)\n", checksum);
  }
  const double swdb_scan = timer.seconds();
  table.add_row({"full scan / index build (ms)", ms(fasta_scan),
                 ms(fai_build), ms(swdb_scan),
                 TextTable::fmt(fasta_scan / swdb_scan, 1) + "x"});

  // 1000 random record reads: plain FASTA must re-parse; the index seeks
  // directly and SWDB reads the record in place.
  Rng rng(17);
  std::vector<std::size_t> picks;
  for (int i = 0; i < 1000; ++i) picks.push_back(rng.below(records.size()));

  timer.reset();
  {
    const auto parsed =
        seq::read_fasta_file(fasta_path, seq::AlphabetKind::kProtein);
    std::size_t checksum = 0;
    for (std::size_t pick : picks) checksum += parsed[pick].length();
    std::printf("(fasta checksum %zu)\n", checksum);
  }
  const double fasta_random = timer.seconds();
  timer.reset();
  {
    std::size_t checksum = 0;
    for (std::size_t pick : picks) checksum += fai.read(pick).length();
    std::printf("(fai checksum %zu)\n", checksum);
  }
  const double fai_random = timer.seconds();
  timer.reset();
  {
    std::size_t checksum = 0;
    for (std::size_t pick : picks) checksum += db.record(pick).length();
    std::printf("(swdb checksum %zu)\n", checksum);
  }
  const double swdb_random = timer.seconds();
  table.add_row({"1000 random reads (ms)", ms(fasta_random), ms(fai_random),
                 ms(swdb_random),
                 TextTable::fmt(fasta_random / swdb_random, 1) + "x"});

  // Length-only access (the scheduler's task-cost estimation path).
  timer.reset();
  {
    const auto parsed =
        seq::read_fasta_file(fasta_path, seq::AlphabetKind::kProtein);
    std::uint64_t total = 0;
    for (const auto& r : parsed) total += r.length();
    std::printf("(fasta residues %llu)\n",
                static_cast<unsigned long long>(total));
  }
  const double fasta_lengths = timer.seconds();
  timer.reset();
  {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < fai.size(); ++i) total += fai.length(i);
    std::printf("(fai residues %llu)\n",
                static_cast<unsigned long long>(total));
  }
  const double fai_lengths = std::max(timer.seconds(), 1e-7);
  timer.reset();
  {
    std::uint64_t total = 0;
    for (const std::uint32_t length : db.lengths()) total += length;
    std::printf("(swdb residues %llu)\n",
                static_cast<unsigned long long>(total));
  }
  const double swdb_lengths = std::max(timer.seconds(), 1e-7);
  table.add_row({"length sweep (ms)", ms(fasta_lengths), ms(fai_lengths),
                 ms(swdb_lengths),
                 TextTable::fmt(fasta_lengths / swdb_lengths, 1) + "x"});

  const auto fasta_bytes = std::filesystem::file_size(fasta_path);
  const auto swdb_bytes = std::filesystem::file_size(swdb_path);
  table.add_row({"bytes on disk", std::to_string(fasta_bytes),
                 std::to_string(fasta_bytes), std::to_string(swdb_bytes),
                 TextTable::fmt(static_cast<double>(swdb_bytes) /
                                    static_cast<double>(fasta_bytes),
                                2) +
                     "x the size"});

  std::printf("%s", table.render().c_str());
  bench::emit_csv(table, "binary_format.csv");
  std::filesystem::remove(fasta_path);
  std::filesystem::remove(swdb_path);
  return 0;
}
