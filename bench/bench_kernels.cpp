// Kernel microbenchmarks (google-benchmark): real measured GCUPS on this
// host for every alignment kernel, across query lengths and across every
// available SIMD backend (scalar/sse2/avx2/avx512 — registered at runtime
// from CPUID, reported with their lane counts). The performance model's
// GCUPS classes (platform/perf_model.h) stay Table II's; these rows are
// this host's measured counterparts.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/annotate.h"
#include "align/backend.h"
#include "align/banded.h"
#include "align/kernel_interseq.h"
#include "align/kernel_striped8.h"
#include "align/linear_space.h"
#include "align/scalar.h"
#include "align/search.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace {

using namespace swdual;

struct KernelFixtureData {
  seq::Sequence query;
  std::vector<seq::Sequence> db;
  align::DbView views;
  align::ScoringScheme scheme;
  std::uint64_t cells = 0;

  KernelFixtureData(std::size_t query_len, std::size_t db_count,
                    std::size_t db_len)
      : KernelFixtureData(query_len,
                          std::vector<std::size_t>(db_count, db_len)) {}

  KernelFixtureData(std::size_t query_len,
                    const std::vector<std::size_t>& db_lengths) {
    Rng rng(1234);
    query = seq::random_protein(rng, "q", query_len);
    for (const std::size_t len : db_lengths) {
      db.push_back(seq::random_protein(rng, "d", len));
      cells += static_cast<std::uint64_t>(query_len) * len;
    }
    views = align::make_db_view(db);
  }
};

void report_gcups(benchmark::State& state, std::uint64_t cells_per_iter) {
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells_per_iter) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ScalarGotoh(benchmark::State& state) {
  const KernelFixtureData data(static_cast<std::size_t>(state.range(0)), 16,
                               256);
  for (auto _ : state) {
    int total = 0;
    for (const auto& view : data.views) {
      total += align::gotoh_score({data.query.residues.data(),
                                   data.query.residues.size()},
                                  view, data.scheme)
                   .score;
    }
    benchmark::DoNotOptimize(total);
  }
  report_gcups(state, data.cells);
}
BENCHMARK(BM_ScalarGotoh)->Arg(64)->Arg(256)->Arg(1024);

void BM_InterSeqKernel(benchmark::State& state) {
  const KernelFixtureData data(static_cast<std::size_t>(state.range(0)), 64,
                               256);
  align::SequenceViews views;
  for (const auto& v : data.views) views.push_back(v);
  const align::KernelTable& kt = align::kernel_table(align::best_backend());
  for (auto _ : state) {
    const auto result = kt.interseq(
        {data.query.residues.data(), data.query.residues.size()}, views,
        data.scheme);
    benchmark::DoNotOptimize(result.scores.data());
  }
  report_gcups(state, data.cells);
}
BENCHMARK(BM_InterSeqKernel)->Arg(64)->Arg(256)->Arg(1024);

void BM_BandedKernel(benchmark::State& state) {
  const KernelFixtureData data(256, 16, 256);
  const auto band = static_cast<std::size_t>(state.range(0));
  std::uint64_t cells = 0;
  for (auto _ : state) {
    std::uint64_t iter_cells = 0;
    for (const auto& view : data.views) {
      const auto r = align::banded_gotoh_score(
          {data.query.residues.data(), data.query.residues.size()}, view,
          data.scheme, band);
      iter_cells += r.cells;
    }
    cells = iter_cells;
    benchmark::DoNotOptimize(cells);
  }
  report_gcups(state, cells);
}
BENCHMARK(BM_BandedKernel)->Arg(8)->Arg(32)->Arg(128);

void BM_QueryProfileBuild(benchmark::State& state) {
  const KernelFixtureData data(static_cast<std::size_t>(state.range(0)), 1, 1);
  for (auto _ : state) {
    const align::StripedProfileU8 profile(
        {data.query.residues.data(), data.query.residues.size()},
        *data.scheme.matrix);
    benchmark::DoNotOptimize(profile.segment_length());
  }
}
BENCHMARK(BM_QueryProfileBuild)->Arg(256)->Arg(4096);

// --- Per-backend kernel benchmarks --------------------------------------
// One registration per (kernel, available backend), going straight through
// the backend's kernel table so dispatch overhead is excluded and each ISA
// is measured in isolation. The "lanes" counter records the vector width.

void backend_striped8(benchmark::State& state, align::Backend backend) {
  const KernelFixtureData data(360, 64, 256);
  const std::span<const std::uint8_t> query(data.query.residues.data(),
                                            data.query.residues.size());
  const align::StripedProfileU8 profile(query, *data.scheme.matrix,
                                        align::backend_lanes8(backend));
  const align::KernelTable& kt = align::kernel_table(backend);
  for (auto _ : state) {
    int total = 0;
    for (const auto& view : data.views) {
      total += kt.striped8(profile, view, data.scheme.gap).score;
    }
    benchmark::DoNotOptimize(total);
  }
  report_gcups(state, data.cells);
  state.counters["lanes"] =
      static_cast<double>(align::backend_lanes8(backend));
}

void backend_interseq(benchmark::State& state, align::Backend backend) {
  const KernelFixtureData data(360, 64, 256);
  const std::span<const std::uint8_t> query(data.query.residues.data(),
                                            data.query.residues.size());
  align::SequenceViews views;
  for (const auto& v : data.views) views.push_back(v);
  const align::KernelTable& kt = align::kernel_table(backend);
  for (auto _ : state) {
    const auto result = kt.interseq(query, views, data.scheme);
    benchmark::DoNotOptimize(result.scores.data());
  }
  report_gcups(state, data.cells);
  state.counters["lanes"] =
      static_cast<double>(align::backend_lanes16(backend));
}

/// Record lengths of the banded screen rows: 256 records, 256 × 600
/// residues in total.
enum class ScreenShape {
  kOneLength,  ///< every record 600 residues
  kMixed,      ///< 256 distinct lengths, 600 ± 1..128
  kRuns,       ///< 32 lengths, 600 ± 2..62, in runs of 8 equal lengths
};

std::vector<std::size_t> screen_lengths(ScreenShape shape) {
  std::vector<std::size_t> lengths;
  for (std::size_t k = 1; k <= 128; ++k) {
    const std::size_t d = shape == ScreenShape::kMixed  ? k
                          : shape == ScreenShape::kRuns ? 2 + 4 * ((k - 1) / 8)
                                                        : 0;
    lengths.push_back(600 + d);
    lengths.push_back(600 - d);
  }
  return lengths;
}

void backend_banded_screen(benchmark::State& state, align::Backend backend,
                           ScreenShape shape) {
  // The two-stage filter's screening shape: many medium-length records, a
  // band much narrower than the record. GCUPS counts the band cells the
  // screen actually computes (BandedBatchResult.cells), so the number is
  // comparable with the full-matrix kernels per unit of work — the screen's
  // end-to-end advantage is that it has ~len/(2·band+1)× fewer cells.
  // With one length every lane group is uniform, so the screen walks each
  // group's band geometry once (its uniform path); the other shapes leave
  // no such group and time the paced path, where runs of 8 let lanes of
  // one length share a geometry step.
  const KernelFixtureData data(300, screen_lengths(shape));
  const std::size_t band = 16;
  const std::span<const std::uint8_t> query(data.query.residues.data(),
                                            data.query.residues.size());
  align::SequenceViews views;
  for (const auto& v : data.views) views.push_back(v);
  const align::KernelTable& kt = align::kernel_table(backend);
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto result = kt.banded(query, views, data.scheme, band);
    cells = result.cells;
    benchmark::DoNotOptimize(result.scores.data());
  }
  report_gcups(state, cells);
  state.counters["lanes"] =
      static_cast<double>(align::backend_lanes8(backend));
}

// --- Annotate tracebacks ------------------------------------------------
// One hit's CIGAR, two ways: the linear-space traceback alone
// (sw_align_affine_linear: two score-only passes, then Myers–Miller) and
// annotate_cigar, which tries the half-width-16 band first and falls back
// to it only when the band does not certify the hit. The "banded" counter
// says which path served the annotate_cigar row (1: the band, 0: the
// fallback).

/// One query and one record whose alignment the rows trace back.
struct CigarPair {
  std::vector<std::uint8_t> query, record;
  int score = 0;  ///< the exact local score, the hit's search score
};

enum class CigarShape {
  kPlanted,   ///< 300×300: a substitution every 17 residues
  kIndels,    ///< 1000×1001: also a 1-residue indel every 40, alternating
  kFallback,  ///< 300×30000: the homolog at offset 14000, far off the band
};

CigarPair cigar_pair(CigarShape shape) {
  Rng rng(4321);
  const std::size_t m = shape == CigarShape::kIndels ? 1000 : 300;
  CigarPair pair;
  pair.query = seq::random_protein(rng, "q", m).residues;
  std::vector<std::uint8_t> homolog;
  for (std::size_t i = 0; i < m; ++i) {
    const auto other = static_cast<std::uint8_t>(rng.below(20));
    if (shape == CigarShape::kIndels && i % 40 == 39) {
      if (i % 80 == 39) {
        homolog.push_back(other);  // an inserted residue
      } else {
        continue;  // a deleted one
      }
    }
    homolog.push_back(i % 17 == 16 ? other : pair.query[i]);
  }
  if (shape == CigarShape::kFallback) {
    pair.record = seq::random_protein(rng, "r", 14000).residues;
    pair.record.insert(pair.record.end(), homolog.begin(), homolog.end());
    const auto tail = seq::random_protein(rng, "t", 30000 - pair.record.size());
    pair.record.insert(pair.record.end(), tail.residues.begin(),
                       tail.residues.end());
  } else {
    pair.record = std::move(homolog);
  }
  pair.score =
      align::sw_align_affine_linear(pair.query, pair.record, {}).score;
  return pair;
}

void annotate_cigar_row(benchmark::State& state, CigarShape shape,
                        bool annotate) {
  const CigarPair pair = cigar_pair(shape);
  const align::ScoringScheme scheme;
  auto path = align::TracebackPath::kLinear;
  for (auto _ : state) {
    if (annotate) {
      align::SearchHit hit(0, pair.score);
      hit.annotation = std::make_shared<align::HitAnnotation>();
      path = align::annotate_cigar(hit, pair.query, pair.record, scheme);
      benchmark::DoNotOptimize(hit.annotation.get());
    } else {
      const align::Alignment alignment =
          align::sw_align_affine_linear(pair.query, pair.record, scheme);
      benchmark::DoNotOptimize(alignment.score);
    }
  }
  if (annotate) {
    state.counters["banded"] = path == align::TracebackPath::kBanded ? 1 : 0;
  }
}

void register_annotate_benchmarks() {
  for (const auto& [name, shape] :
       {std::pair{"planted_300x300", CigarShape::kPlanted},
        std::pair{"indels_1000x1001", CigarShape::kIndels},
        std::pair{"fallback_300x30000", CigarShape::kFallback}}) {
    for (const bool annotate : {false, true}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_AnnotateCigar/") +
           (annotate ? "annotate_cigar/" : "linear/") + name)
              .c_str(),
          [shape, annotate](benchmark::State& s) {
            annotate_cigar_row(s, shape, annotate);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void register_backend_benchmarks() {
  for (const align::Backend backend : align::available_backends()) {
    const std::string suffix = align::backend_name(backend);
    benchmark::RegisterBenchmark(
        ("BM_Striped8Backend/" + suffix).c_str(),
        [backend](benchmark::State& s) { backend_striped8(s, backend); });
    benchmark::RegisterBenchmark(
        ("BM_InterSeqBackend/" + suffix).c_str(),
        [backend](benchmark::State& s) { backend_interseq(s, backend); });
    for (const auto& row :
         {std::pair{"BM_BandedScreenBackend/", ScreenShape::kOneLength},
          std::pair{"BM_BandedScreenMixedBackend/", ScreenShape::kMixed},
          std::pair{"BM_BandedScreenRunsBackend/", ScreenShape::kRuns}}) {
      const ScreenShape shape = row.second;
      benchmark::RegisterBenchmark(
          (row.first + suffix).c_str(), [backend, shape](benchmark::State& s) {
            backend_banded_screen(s, backend, shape);
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_benchmarks();
  register_annotate_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
