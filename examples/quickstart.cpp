// Quickstart: the smallest useful tour of the SWDUAL library.
//
//   1. Reproduce the paper's Fig. 1 alignment example (global, linear gaps).
//   2. Score a protein pair with the Gotoh affine-gap oracle and the SIMD
//      kernels, and print the local alignment.
//   3. Run a small hybrid database search through the master–slave runtime.
//
// Build & run:  ./quickstart
#include <cstdio>
#include <exception>
#include <iostream>

#include "align/kernel_striped8.h"
#include "align/scalar.h"
#include "align/search.h"
#include "align/traceback.h"
#include "master/master.h"
#include "seq/dbgen.h"
#include "seq/queryset.h"
#include "util/rng.h"

int main() try {
  using namespace swdual;

  // --- 1. Fig. 1: ACTTGTCCG vs ATTGTCAG, ma=+1 mi=-1 g=-2 ----------------
  std::cout << "== Fig. 1: global alignment, linear gap model ==\n";
  const auto s = seq::Sequence::from_text("s", "", seq::AlphabetKind::kDna,
                                          "ACTTGTCCG");
  const auto t = seq::Sequence::from_text("t", "", seq::AlphabetKind::kDna,
                                          "ATTGTCAG");
  const align::ScoreMatrix dna_scores =
      align::ScoreMatrix::uniform(seq::AlphabetKind::kDna, 1, -1);
  const align::Alignment fig1 = align::nw_align_linear(
      {s.residues.data(), s.residues.size()},
      {t.residues.data(), t.residues.size()}, dna_scores, -2);
  std::cout << align::render_alignment(fig1) << '\n';

  // --- 2. Local affine-gap alignment of two proteins ---------------------
  std::cout << "== Smith-Waterman / Gotoh local alignment (BLOSUM62) ==\n";
  const auto q = seq::Sequence::from_text(
      "q", "", seq::AlphabetKind::kProtein, "MKVLAWDERTNQGHKLMREWYV");
  const auto d = seq::Sequence::from_text(
      "d", "", seq::AlphabetKind::kProtein, "GGGMKVLAWDERTQGHKLMREWYVPPP");
  const align::ScoringScheme scheme;  // BLOSUM62, Gs=10, Ge=2
  const align::Alignment local = align::sw_align_affine(
      {q.residues.data(), q.residues.size()},
      {d.residues.data(), d.residues.size()}, scheme);
  std::cout << align::render_alignment(local);

  const int striped = align::striped8_score(
                          {q.residues.data(), q.residues.size()},
                          {d.residues.data(), d.residues.size()}, scheme)
                          .score;
  std::cout << "striped SIMD kernel agrees: " << std::boolalpha
            << (striped == local.score) << "\n\n";

  // --- 3. Hybrid database search (1 CPU worker + 1 virtual GPU worker) ---
  std::cout << "== Hybrid master-slave search (SWDUAL allocation) ==\n";
  seq::DatabaseProfile profile{"demo", 200, 50, 400, 5.0, 0.5, 7};
  const auto db = seq::generate_database(profile);
  const auto queries = seq::sample_query_set(db, 5, 50, 400, 11);

  master::MasterConfig config;
  config.cpu_workers = 1;
  config.gpu_workers = 1;
  config.policy = master::AllocationPolicy::kSwdual;
  config.top_hits = 3;
  const master::SearchReport report = master::run_search(queries, db, config);

  for (const auto& result : report.results) {
    std::printf("query %zu (%zu aa): ", result.query_index,
                queries[result.query_index].length());
    for (const auto& hit : result.hits) {
      std::printf(" %s=%d", db[hit.db_index].id.c_str(), hit.score);
    }
    std::printf("\n");
  }
  std::printf(
      "\n%zu queries x %zu records: %.0f Mcells, wall %.3f s; modeled on "
      "paper hardware: %.3f s (%.1f GCUPS)\n",
      queries.size(), db.size(),
      static_cast<double>(report.total_cells) / 1e6, report.wall_seconds,
      report.virtual_makespan, report.virtual_gcups);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
