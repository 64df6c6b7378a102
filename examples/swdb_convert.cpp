// swdb_convert: FASTA <-> SWDB conversion utility (paper §IV's format step).
//
//   ./swdb_convert db.fasta db.swdb            # FASTA -> binary
//   ./swdb_convert db.swdb db.fasta            # binary -> FASTA
//   ./swdb_convert --stats db.swdb             # print database statistics
//
// --stats on an .swdb input reads only the header and index sections —
// statistics for a multi-gigabyte database cost a few kilobytes of I/O.
#include <iostream>

#include "seq/dbstats.h"
#include "seq/fasta.h"
#include "seq/swdb.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

void print_stats(const swdual::seq::DatabaseStats& stats,
                 const std::string& format) {
  using swdual::TextTable;
  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"format", format});
  table.add_row({"sequences", std::to_string(stats.num_sequences)});
  table.add_row({"residues", std::to_string(stats.total_residues)});
  table.add_row({"min length", std::to_string(stats.min_length)});
  table.add_row({"max length", std::to_string(stats.max_length)});
  table.add_row({"mean length", TextTable::fmt(stats.mean_length, 1)});
  std::cout << table.render();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swdual;

  CliParser cli("swdb_convert", "convert between FASTA and SWDB");
  cli.add_flag("stats", "print statistics of the input instead of converting");
  cli.add_option("alphabet", "protein | dna | rna", "protein");

  try {
    cli.parse(argc, argv);
    if (cli.help_requested() || cli.positional().empty()) {
      std::cout << cli.usage()
                << "\nusage: swdb_convert [--stats] <input> [output]\n";
      return cli.help_requested() ? 0 : 2;
    }

    seq::AlphabetKind alphabet = seq::AlphabetKind::kProtein;
    if (cli.option("alphabet") == "dna") alphabet = seq::AlphabetKind::kDna;
    if (cli.option("alphabet") == "rna") alphabet = seq::AlphabetKind::kRna;

    const std::string& input = cli.positional()[0];
    const bool input_is_swdb = ends_with(input, ".swdb");

    if (cli.flag("stats")) {
      WallTimer timer;
      seq::DatabaseStats stats;
      std::string format;
      if (input_is_swdb) {
        // Index-only path: lengths come straight from the SWDB index
        // section, no record is decoded.
        stats = seq::compute_stats(seq::MappedSwdb(input));
        format = "swdb";
      } else {
        stats = seq::compute_stats(seq::read_fasta_file(input, alphabet));
        format = "fasta";
      }
      std::cerr << "collected stats in " << TextTable::fmt(timer.millis(), 1)
                << " ms\n";
      print_stats(stats, format);
      return 0;
    }

    WallTimer timer;
    std::vector<seq::Sequence> records;
    if (input_is_swdb) {
      const seq::MappedSwdb db(input);
      records.reserve(db.size());
      for (std::size_t i = 0; i < db.size(); ++i) {
        records.push_back(db.record(i));
      }
    } else {
      records = seq::read_fasta_file(input, alphabet);
    }
    std::cerr << "read " << records.size() << " records in "
              << TextTable::fmt(timer.millis(), 1) << " ms\n";

    if (cli.positional().size() < 2) {
      std::cerr << "need an output path (or --stats)\n";
      return 2;
    }
    const std::string& output = cli.positional()[1];
    timer.reset();
    if (ends_with(output, ".swdb")) {
      seq::write_swdb(output, records, alphabet);
    } else {
      seq::write_fasta_file(output, records);
    }
    std::cerr << "wrote " << output << " in "
              << TextTable::fmt(timer.millis(), 1) << " ms\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
