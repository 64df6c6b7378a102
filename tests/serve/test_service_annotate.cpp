// Annotated responses through the query service (ctest labels: serve
// annotate): stats+cigar responses must carry e-value / bit score / CIGAR
// per hit, the CIGAR must re-derive the hit's exact search score, cache
// hits must stay annotated, a finite e-value cutoff must drop exactly the
// insignificant suffix, and every shard topology must produce bit-identical
// annotated answers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "align/annotate.h"
#include "align/search.h"
#include "align/statistics.h"
#include "seq/alphabet.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/rng.h"

namespace swdual::serve {
namespace {

std::vector<seq::Sequence> make_database(std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 150))));
  }
  return db;
}

seq::Sequence make_query(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  return seq::random_protein(rng, "q" + std::to_string(seed), length);
}

align::DbView view_of(const std::vector<seq::Sequence>& db) {
  align::DbView view;
  for (const auto& record : db) {
    view.emplace_back(record.residues.data(), record.residues.size());
  }
  return view;
}

ServiceConfig annotated_config(const std::string& db_id,
                               align::AnnotateMode mode) {
  ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 1;
  config.db_id = db_id;
  config.master.annotate.mode = mode;
  return config;
}

/// The service's calibration is deterministic in (scheme, alphabet, db_id),
/// so an independent StatsCache reproduces the exact params it used.
align::KarlinAltschulParams params_for(const ServiceConfig& config) {
  align::StatsCache cache;
  return *cache.acquire(config.master.scheme, seq::Alphabet::protein(),
                        config.db_id);
}

TEST(QueryServiceAnnotate, StatsCigarResponseCarriesValidatedAnnotations) {
  const auto db = make_database(40, 11);
  const align::DbView db_view = view_of(db);
  ServiceConfig config =
      annotated_config("annot", align::AnnotateMode::kStatsCigar);
  const align::ScoringScheme scheme = config.master.scheme;
  const std::size_t top_k = config.master.top_hits;
  const align::KarlinAltschulParams params = params_for(config);
  const std::uint64_t n = align::db_residue_count(db_view);
  QueryService service(db, std::move(config));

  const seq::Sequence query = make_query(21, 80);
  const Submission ticket = service.submit(query);
  ASSERT_TRUE(ticket.accepted());
  const QueryResponse response = ticket.result.get();
  EXPECT_TRUE(response.annotated);
  ASSERT_FALSE(response.hits.empty());

  const std::vector<align::SearchHit> plain =
      align::search_database(query.residues, db_view, scheme,
                             align::KernelKind::kStriped8)
          .top(top_k);
  ASSERT_EQ(response.hits.size(), plain.size());
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].db_index, plain[i].db_index) << "hit " << i;
    EXPECT_EQ(response.hits[i].score, plain[i].score) << "hit " << i;
    ASSERT_NE(response.hits[i].annotation, nullptr) << "hit " << i;
    const align::HitAnnotation& note = *response.hits[i].annotation;
    EXPECT_DOUBLE_EQ(note.evalue, align::evalue(params,
                                                response.hits[i].score,
                                                query.residues.size(), n));
    EXPECT_DOUBLE_EQ(note.bits,
                     align::bit_score(params, response.hits[i].score));
    EXPECT_EQ(align::cigar_score(
                  note.cigar,
                  {query.residues.data(), query.residues.size()},
                  db_view[response.hits[i].db_index], note.query_begin,
                  note.db_begin, scheme),
              response.hits[i].score)
        << "hit " << i << " cigar " << note.cigar;
  }
  service.shutdown();
}

TEST(QueryServiceAnnotate, StatsModeOmitsCigar) {
  const auto db = make_database(30, 12);
  QueryService service(db,
                       annotated_config("stats", align::AnnotateMode::kStats));
  const Submission ticket = service.submit(make_query(22, 60));
  ASSERT_TRUE(ticket.accepted());
  const QueryResponse response = ticket.result.get();
  EXPECT_TRUE(response.annotated);
  ASSERT_FALSE(response.hits.empty());
  for (const align::SearchHit& hit : response.hits) {
    ASSERT_NE(hit.annotation, nullptr);
    EXPECT_GT(hit.annotation->evalue, 0.0);
    EXPECT_TRUE(hit.annotation->cigar.empty());
  }
  service.shutdown();
}

TEST(QueryServiceAnnotate, CacheHitStaysAnnotated) {
  const auto db = make_database(30, 13);
  QueryService service(
      db, annotated_config("cached", align::AnnotateMode::kStatsCigar));
  const seq::Sequence query = make_query(23, 70);

  const QueryResponse fresh = service.submit(query).result.get();
  ASSERT_FALSE(fresh.hits.empty());
  EXPECT_FALSE(fresh.cache_hit);

  const QueryResponse cached = service.submit(query).result.get();
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_TRUE(cached.annotated);
  ASSERT_EQ(cached.hits.size(), fresh.hits.size());
  for (std::size_t i = 0; i < cached.hits.size(); ++i) {
    ASSERT_NE(cached.hits[i].annotation, nullptr);
    // The cache shares the hit vector, annotations included.
    EXPECT_EQ(cached.hits[i].annotation.get(),
              fresh.hits[i].annotation.get());
  }
  service.shutdown();
}

TEST(QueryServiceAnnotate, FiniteCutoffDropsInsignificantSuffix) {
  const auto db = make_database(50, 14);
  const seq::Sequence query = make_query(24, 60);

  // Reference pass with no cutoff to learn the e-value distribution.
  ServiceConfig reference_config =
      annotated_config("cut", align::AnnotateMode::kStats);
  std::vector<align::SearchHit> reference;
  {
    QueryService service(db, std::move(reference_config));
    reference = service.submit(query).result.get().hits;
    service.shutdown();
  }
  ASSERT_GE(reference.size(), 2u);
  const double cutoff = reference.front().annotation->evalue;
  std::size_t expected_kept = 0;
  while (expected_kept < reference.size() &&
         reference[expected_kept].annotation->evalue <= cutoff) {
    ++expected_kept;
  }
  if (expected_kept == reference.size()) {
    GTEST_SKIP() << "random corpus produced no droppable suffix";
  }

  ServiceConfig config = annotated_config("cut", align::AnnotateMode::kStats);
  config.master.annotate.evalue_cutoff = cutoff;
  QueryService service(db, std::move(config));
  const QueryResponse response = service.submit(query).result.get();
  ASSERT_EQ(response.hits.size(), expected_kept);
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].db_index, reference[i].db_index);
    EXPECT_EQ(response.hits[i].score, reference[i].score);
    EXPECT_LE(response.hits[i].annotation->evalue, cutoff);
  }
  service.shutdown();
}

TEST(QueryServiceAnnotate, ShardTopologiesBitIdenticalToMasterPath) {
  const auto db = make_database(60, 15);
  const seq::Sequence query = make_query(25, 90);

  std::vector<align::SearchHit> master_hits;
  {
    QueryService service(
        db, annotated_config("topo", align::AnnotateMode::kStatsCigar));
    master_hits = service.submit(query).result.get().hits;
    service.shutdown();
  }
  ASSERT_FALSE(master_hits.empty());

  for (std::size_t shards : {1u, 2u, 5u}) {
    ServiceConfig config =
        annotated_config("topo", align::AnnotateMode::kStatsCigar);
    config.shards = shards;
    // A fresh db_id would split the stats cache; same id, same params.
    QueryService service(db, std::move(config));
    const QueryResponse response = service.submit(query).result.get();
    EXPECT_TRUE(response.annotated) << shards << " shards";
    ASSERT_EQ(response.hits.size(), master_hits.size()) << shards
                                                        << " shards";
    for (std::size_t i = 0; i < response.hits.size(); ++i) {
      EXPECT_EQ(response.hits[i].db_index, master_hits[i].db_index)
          << shards << " shards, hit " << i;
      EXPECT_EQ(response.hits[i].score, master_hits[i].score)
          << shards << " shards, hit " << i;
      ASSERT_NE(response.hits[i].annotation, nullptr)
          << shards << " shards, hit " << i;
      const align::HitAnnotation& got = *response.hits[i].annotation;
      const align::HitAnnotation& want = *master_hits[i].annotation;
      EXPECT_DOUBLE_EQ(got.evalue, want.evalue)
          << shards << " shards, hit " << i;
      EXPECT_DOUBLE_EQ(got.bits, want.bits) << shards << " shards, hit " << i;
      EXPECT_EQ(got.cigar, want.cigar) << shards << " shards, hit " << i;
      EXPECT_EQ(got.query_begin, want.query_begin);
      EXPECT_EQ(got.db_begin, want.db_begin);
    }
    service.shutdown();
  }
}

}  // namespace
}  // namespace swdual::serve
