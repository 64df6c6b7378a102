// Master-path two-stage filter (ctest labels: filter threads): every worker
// mix must answer a heuristic-filtered run exactly like the serial filtered
// search. GPU workers screen and cascade on the host, charged at the host
// model, and rescan candidates on the virtual device; a shared
// ProfileCache must not change a single hit. An
// unsharded filtered QueryService, which dispatches through the master,
// must give the same hits.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/pipeline.h"
#include "align/profile_cache.h"
#include "align/search.h"
#include "gpusim/virtual_gpu.h"
#include "master/master.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/rng.h"

#include "../align/filter_reference.h"

namespace swdual::master {
namespace {

struct Corpus {
  std::vector<seq::Sequence> queries;
  std::vector<seq::Sequence> db;
};

/// Random records with three mutated copies of every query spread through
/// the database, so each query's top hits are real homologs.
Corpus planted_corpus(std::uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (std::size_t q = 0; q < 4; ++q) {
    corpus.queries.push_back(seq::random_protein(
        rng, "q" + std::to_string(q),
        static_cast<std::size_t>(rng.between(60, 110))));
  }
  for (std::size_t i = 0; i < 90; ++i) {
    corpus.db.push_back(seq::random_protein(
        rng, "d" + std::to_string(i),
        static_cast<std::size_t>(rng.between(30, 160))));
  }
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    for (std::size_t copy = 0; copy < 3; ++copy) {
      seq::Sequence homolog = corpus.queries[q];
      homolog.id = "h" + std::to_string(q) + "_" + std::to_string(copy);
      for (std::size_t p = copy; p < homolog.residues.size(); p += 11) {
        homolog.residues[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      corpus.db[(q * 3 + copy) * 7 + 3] = std::move(homolog);
    }
  }
  return corpus;
}

align::FilterConfig heuristic() {
  align::FilterConfig filter;
  filter.mode = align::FilterMode::kHeuristic;
  filter.band = 12;
  filter.keep_factor = 2.0;
  return filter;
}

void expect_same_hits(const std::vector<align::SearchHit>& got,
                      const std::vector<align::SearchHit>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].db_index, want[i].db_index) << what << " hit " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " hit " << i;
  }
}

struct SerialAnswer {
  std::vector<std::vector<align::SearchHit>> hits;
  std::uint64_t candidates = 0;
};

SerialAnswer serial_filtered(const Corpus& corpus, std::size_t k) {
  const align::SerialSearchEngine engine(align::make_db_view(corpus.db));
  align::SearchRequest request;
  request.k = k;
  request.filter = heuristic();
  SerialAnswer answer;
  for (const seq::Sequence& query : corpus.queries) {
    const align::SearchProfiles profiles(
        std::span<const std::uint8_t>(query.residues), align::ScoringScheme{},
        align::KernelKind::kInterSeq);
    const align::SearchProfiles* group[] = {&profiles};
    const align::SearchOutcome result =
        std::move(align::search(engine, group, request).front());
    answer.hits.push_back(result.ranked.hits);
    answer.candidates += result.filter.candidates;
  }
  return answer;
}

TEST(MasterFilter, HeuristicMatchesSerialForEveryWorkerMix) {
  const Corpus corpus = planted_corpus(0xf17e);
  const std::size_t k = 4;
  const SerialAnswer serial = serial_filtered(corpus, k);
  ASSERT_GT(serial.candidates, 0u);

  for (const std::size_t gpus : {0u, 1u, 2u}) {
    for (const bool cached : {false, true}) {
      align::ProfileCache cache(16);
      MasterConfig config;
      config.cpu_workers = 2;
      config.gpu_workers = gpus;
      config.top_hits = k;
      config.filter = heuristic();
      if (cached) config.profile_cache = &cache;
      const std::string label = "gpus=" + std::to_string(gpus) +
                                (cached ? " cached" : " uncached");
      const SearchReport report =
          run_search(corpus.queries, corpus.db, config);
      ASSERT_EQ(report.results.size(), corpus.queries.size()) << label;
      for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
        expect_same_hits(report.results[q].hits, serial.hits[q],
                         label + " query " + std::to_string(q));
      }
      EXPECT_EQ(report.filter.candidates, serial.candidates) << label;
    }
  }
}

TEST(MasterFilter, GpuWorkerChargesTheCascadeAtTheHostRate) {
  // A GPU worker screens on the host, re-screens the band-edge hits there,
  // and rescans the candidates on the device. Its virtual busy time is the
  // sum, per task, of the screen at the host model (with its task
  // overhead), the cascade's banded cells at the host rate, and the
  // device's modeled rescan batch. Every kernel would miss an uncharged
  // cascade alike, so this checks the sum itself.
  const Corpus corpus = planted_corpus(0xf180);
  MasterConfig config;
  config.cpu_workers = 0;
  config.gpu_workers = 1;
  config.top_hits = 4;
  config.filter = heuristic();
  const SearchReport report = run_search(corpus.queries, corpus.db, config);
  ASSERT_EQ(report.worker_virtual_busy.size(), 1u);

  const align::DbView db = align::make_db_view(corpus.db);
  const platform::WorkerClass& host = config.model.cpu_worker();
  double want = 0.0;
  std::uint64_t cascade_cells = 0;
  for (const seq::Sequence& query : corpus.queries) {
    const std::span<const std::uint8_t> residues(query.residues);
    const align::FilterReference ref = align::filter_reference(
        residues, db, config.scheme, config.filter, config.top_hits);
    align::DbView rescans;
    for (const std::uint32_t c : ref.rescans) rescans.push_back(db[c]);
    const align::SearchProfiles profiles(residues, config.scheme,
                                         config.cpu_kernel,
                                         config.cpu_backend);
    gpusim::VirtualGpu gpu(
        gpusim::DeviceSpec{.gcups = config.model.gpu_worker().gcups});
    want += host.seconds_for(ref.screen_cells) +
            static_cast<double>(ref.cascade_cells) / (host.gcups * 1e9) +
            gpu.run_batch(profiles, rescans).virtual_seconds;
    cascade_cells += ref.cascade_cells;
  }
  ASSERT_GT(cascade_cells, 0u) << "the corpus must exercise the cascade";
  const double busy = report.worker_virtual_busy.begin()->second;
  EXPECT_NEAR(busy, want, 1e-9 * want);
  // The cascade's share is far above the tolerance, so a missing charge
  // fails the check above.
  EXPECT_GT(static_cast<double>(cascade_cells) / (host.gcups * 1e9),
            1e-6 * want);
}

TEST(MasterFilter, UnshardedFilteredServiceMatchesSerial) {
  const Corpus corpus = planted_corpus(0xf17f);
  serve::ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 1;
  config.master.filter = heuristic();
  config.db_id = "master-filter";
  const SerialAnswer serial =
      serial_filtered(corpus, config.master.top_hits);
  serve::QueryService service(corpus.db, std::move(config));
  for (std::size_t q = 0; q < corpus.queries.size(); ++q) {
    const serve::QueryResponse response =
        service.submit(corpus.queries[q]).result.get();
    EXPECT_TRUE(response.filtered);
    EXPECT_FALSE(response.partial);
    expect_same_hits(response.hits, serial.hits[q],
                     "service query " + std::to_string(q));
  }
  service.shutdown();
}

}  // namespace
}  // namespace swdual::master
