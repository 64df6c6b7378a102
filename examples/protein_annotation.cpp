// protein_annotation: the paper's motivating workload as an application.
//
// "Once a new biological sequence is discovered, its functional/structural
// characteristics must be established. In order to do that, the newly
// discovered sequence is compared against other sequences, looking for
// similarities." (§I)
//
// This example plays that scenario end to end: a reference database with
// known annotations, a set of "newly discovered" sequences (mutated copies
// of database entries plus unrelated randoms), a hybrid SWDUAL search, and
// statistical significance (bit scores, E-values) deciding which queries
// inherit an annotation and which are reported as novel.
#include <exception>
#include <iostream>

#include "align/annotate.h"
#include "align/statistics.h"
#include "core/report.h"
#include "master/master.h"
#include "seq/dbgen.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) try {
  using namespace swdual;

  CliParser cli("protein_annotation",
                "annotate novel sequences against a reference database");
  cli.add_option("db-size", "reference database size", "400");
  cli.add_option("novel", "number of novel sequences", "8");
  cli.add_option("evalue", "annotation E-value cutoff", "0.001");
  cli.add_option("seed", "random seed", "2014");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  Rng rng(static_cast<std::uint64_t>(cli.option_uint("seed")));
  const auto db_size = cli.option_uint("db-size");
  const auto novel_count = cli.option_uint("novel");
  const double cutoff = cli.option_positive_double("evalue");

  // Reference database: families named fam0.. with member sequences.
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < db_size; ++i) {
    seq::Sequence record = seq::random_protein(
        rng, "fam" + std::to_string(i % (db_size / 4)) + "_m" +
                 std::to_string(i / (db_size / 4)),
        static_cast<std::size_t>(rng.between(120, 450)));
    db.push_back(std::move(record));
  }

  // Novel sequences: half are mutated database members (annotatable), half
  // pure random (should stay unannotated).
  std::vector<seq::Sequence> queries;
  std::vector<bool> expect_hit;
  for (std::size_t i = 0; i < novel_count; ++i) {
    if (i % 2 == 0) {
      seq::Sequence q = db[rng.below(db.size())];
      // ~15% point mutations.
      for (auto& code : q.residues) {
        if (rng.uniform() < 0.15) {
          code = static_cast<std::uint8_t>(rng.below(20));
        }
      }
      q.id = "novel_" + std::to_string(i) + "_homolog";
      queries.push_back(std::move(q));
      expect_hit.push_back(true);
    } else {
      queries.push_back(seq::random_protein(
          rng, "novel_" + std::to_string(i) + "_orphan",
          static_cast<std::size_t>(rng.between(120, 450))));
      expect_hit.push_back(false);
    }
  }

  // Calibrate gapped Karlin–Altschul statistics for the default scheme.
  std::cerr << "calibrating gapped Gumbel parameters...\n";
  const align::KarlinAltschulParams params = align::calibrate_gapped_params(
      align::ScoringScheme{}, seq::amino_acid_frequencies(), 150, 150, 100,
      7);
  std::cerr << "  lambda = " << params.lambda << ", K = " << params.k
            << "\n\n";

  // The search pipeline attaches e-values and bit scores to every hit.
  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.top_hits = 3;
  config.annotate.mode = align::AnnotateMode::kStats;
  config.stats = &params;
  const master::SearchReport report = master::run_search(queries, db, config);

  std::cout << core::render_search_report(queries, db, report, cutoff);
  std::cout << "\nannotation decisions (E-value cutoff " << cutoff << "):\n";
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& hits = report.results[q].hits;
    const bool significant =
        !hits.empty() && hits[0].annotation->evalue <= cutoff;
    std::cout << "  " << queries[q].id << ": ";
    if (significant) {
      const std::string& subject = db[hits[0].db_index].id;
      std::cout << "annotated from " << subject.substr(0, subject.find('_'))
                << " (E=" << hits[0].annotation->evalue << ")";
    } else {
      std::cout << "no significant homolog — novel family candidate";
    }
    std::cout << (significant == expect_hit[q] ? "  [as planted]"
                                               : "  [UNEXPECTED]")
              << '\n';
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
