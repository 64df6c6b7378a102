// Unit tests for the virtual GPU device.
#include <gtest/gtest.h>

#include "align/scalar.h"
#include "gpusim/virtual_gpu.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::gpusim {
namespace {

align::DbView make_views(const std::vector<seq::Sequence>& records) {
  return align::make_db_view(records);
}

/// One query through the device on striped8 profiles, the default exact
/// kernel.
BatchResult run(const VirtualGpu& gpu, std::span<const std::uint8_t> query,
                const align::DbView& db, const align::ScoringScheme& scheme) {
  const align::SearchProfiles profiles(query, scheme,
                                       align::KernelKind::kStriped8);
  return gpu.run_batch(profiles, db);
}

std::vector<seq::Sequence> tiny_db(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < n; ++i) {
    db.push_back(seq::random_protein(
        rng, "d" + std::to_string(i),
        static_cast<std::size_t>(rng.between(30, 200))));
  }
  return db;
}

TEST(VirtualGpu, ScoresAreExact) {
  VirtualGpu gpu;
  Rng rng(1);
  const seq::Sequence query = seq::random_protein(rng, "q", 80);
  auto db = tiny_db(20, 2);
  db.push_back(query);  // a self-hit overflows striped8's byte tier
  const align::DbView views = make_views(db);
  const align::ScoringScheme scheme;
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  const BatchResult batch = run(gpu, query_view, views, scheme);
  ASSERT_EQ(batch.scores.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(batch.scores[i],
              align::gotoh_score(query_view, views[i], scheme).score)
        << "record " << i;
  }

  // The scalar reference's profiles: the same scores, and — time being
  // charged from cells — the same cells and modeled time.
  const align::SearchProfiles scalar(query_view, scheme,
                                     align::KernelKind::kScalar);
  const BatchResult with = gpu.run_batch(scalar, views);
  EXPECT_EQ(with.scores, batch.scores);
  EXPECT_EQ(with.cells, batch.cells);
  EXPECT_EQ(with.virtual_seconds, batch.virtual_seconds);
}

TEST(VirtualGpu, VirtualTimeTracksCellCount) {
  VirtualGpu gpu;
  Rng rng(3);
  const seq::Sequence q1 = seq::random_protein(rng, "q1", 50);
  const seq::Sequence q2 = seq::random_protein(rng, "q2", 500);
  const auto db = tiny_db(30, 4);
  const align::DbView views = make_views(db);
  const align::ScoringScheme scheme;
  const BatchResult small =
      run(gpu, {q1.residues.data(), q1.residues.size()}, views, scheme);
  const BatchResult large =
      run(gpu, {q2.residues.data(), q2.residues.size()}, views, scheme);
  EXPECT_GT(large.cells, small.cells);
  EXPECT_GT(large.virtual_seconds, small.virtual_seconds);
}

TEST(VirtualGpu, ModeledGcupsBelowPeak) {
  VirtualGpu gpu;
  Rng rng(5);
  const seq::Sequence query = seq::random_protein(rng, "q", 200);
  const auto db = tiny_db(64, 6);
  const align::ScoringScheme scheme;
  const BatchResult batch =
      run(gpu, {query.residues.data(), query.residues.size()}, make_views(db),
          scheme);
  const double gcups =
      static_cast<double>(batch.cells) / batch.virtual_seconds / 1e9;
  EXPECT_GT(gcups, 0.0);
  EXPECT_LE(gcups, gpu.spec().gcups * (1 + 1e-9));
}

TEST(VirtualGpu, SmallBatchesLoseOccupancy) {
  // 8 alignments cannot fill 14 SMs x 1024 threads: modeled GCUPS must be
  // far below peak (the CUDASW++ small-database effect).
  VirtualGpu gpu;
  Rng rng(7);
  const seq::Sequence query = seq::random_protein(rng, "q", 200);
  const auto db = tiny_db(8, 8);
  const align::ScoringScheme scheme;
  const BatchResult batch =
      run(gpu, {query.residues.data(), query.residues.size()}, make_views(db),
          scheme);
  const double gcups =
      static_cast<double>(batch.cells) / batch.virtual_seconds / 1e9;
  EXPECT_LT(gcups, gpu.spec().gcups * 0.01);
}

TEST(VirtualGpu, MemoryPartitioningSplitsBatches) {
  DeviceSpec spec;
  spec.memory_bytes = 2000;  // residue budget 1000 bytes
  VirtualGpu gpu(spec);
  Rng rng(9);
  const seq::Sequence query = seq::random_protein(rng, "q", 40);
  std::vector<seq::Sequence> db;
  for (int i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(rng, "d", 300));  // 3000 bytes total
  }
  const align::ScoringScheme scheme;
  const BatchResult batch =
      run(gpu, {query.residues.data(), query.residues.size()}, make_views(db),
          scheme);
  EXPECT_GE(batch.sub_batches, 3u);
  // Scores still exact despite the splits.
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(batch.scores[i],
              align::gotoh_score(
                  {query.residues.data(), query.residues.size()},
                  {db[i].residues.data(), db[i].residues.size()}, scheme)
                  .score);
  }
}

TEST(VirtualGpu, EmptyBatchHandled) {
  VirtualGpu gpu;
  const align::ScoringScheme scheme;
  const BatchResult batch = run(gpu, {}, {}, scheme);
  EXPECT_TRUE(batch.scores.empty());
  EXPECT_EQ(batch.virtual_seconds, 0.0);
}

TEST(VirtualGpu, InvalidSpecRejected) {
  DeviceSpec spec;
  spec.gcups = 0;
  EXPECT_THROW(VirtualGpu{spec}, InvalidArgument);
}

}  // namespace
}  // namespace swdual::gpusim
