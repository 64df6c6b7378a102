#include "align/pipeline.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

void SearchRequest::validate() const {
  filter.validate();
  if (!annotate.enabled()) return;
  annotate.validate();
  SWDUAL_REQUIRE(stats != nullptr,
                 "annotation requires calibrated Karlin-Altschul params "
                 "(acquire them via align::StatsCache)");
}

std::vector<ScreenResult> SearchEngine::rescreen(
    std::span<const SearchProfiles* const> group,
    std::span<const DbView> records, std::size_t band) const {
  std::vector<ScreenResult> out;
  out.reserve(group.size());
  for (std::size_t q = 0; q < group.size(); ++q) {
    out.push_back(
        screen_range(*group[q], records[q], 0, records[q].size(), band));
  }
  return out;
}

SerialSearchEngine::SerialSearchEngine(const DbView& db,
                                       const SearchSinks& sinks)
    : SearchEngine(sinks), db_(db), residues_(db_residue_count(db)) {}

std::span<const std::uint8_t> SerialSearchEngine::record(
    std::size_t index) const {
  SWDUAL_CHECK(index < db_.size(), "hit index outside the database");
  return db_[index];
}

std::vector<RankedSearchResult> SerialSearchEngine::scan(
    std::span<const SearchProfiles* const> group, std::size_t k,
    std::vector<ShardFailure>&) const {
  std::vector<RankedSearchResult> out(group.size());
  for (std::size_t q = 0; q < group.size(); ++q) {
    out[q].result = rescan(*group[q], db_);
    out[q].hits = out[q].result.top(k);
  }
  return out;
}

std::vector<ScreenResult> SerialSearchEngine::screen(
    std::span<const SearchProfiles* const> group, std::size_t band,
    std::vector<ShardFailure>&) const {
  std::vector<ScreenResult> out;
  out.reserve(group.size());
  for (const SearchProfiles* profiles : group) {
    out.push_back(screen_range(*profiles, db_, 0, db_.size(), band));
  }
  return out;
}

namespace {

/// The cascade's widest band, as a multiple of the screen's: two steps, at
/// 2× and at 4× the band.
constexpr std::size_t kCascadeWidening = 4;

/// A step re-screens a record only while the band at half-width w is
/// narrow against it both ways: the record is longer than kNarrowBand band
/// widths (2w + 1 columns), and at least 1/kNarrowBand of the query's
/// length, so a column's window spans at most kNarrowBand·(2w + 1) query
/// rows. The kernel's paced walk runs a lane group over the union of its
/// lanes' windows, so a short record (tall windows) in a group of mixed
/// lengths makes the re-screen cost more than the exact rescans it stands
/// in for; such a record stays on the edge and is rescanned.
constexpr std::size_t kNarrowBand = 2;

/// True when `step_band` is narrow against a record of length n for a
/// query of length m (kNarrowBand).
bool band_is_narrow(std::size_t m, std::size_t n, std::size_t step_band) {
  return n > kNarrowBand * (2 * step_band + 1) && kNarrowBand * n >= m;
}

/// Stage cascade for the group's merged screens: every band-edge hit that
/// lacks the exactness certificate is re-screened at twice the band and, if
/// still on the edge, at four times it, while the band is narrow against it
/// (band_is_narrow). A wider band's optimum ranges over
/// a superset of the narrower band's paths, so its score is never lower; it
/// replaces the record's score, certificate and edge flag, and its cells
/// add to the screen's. Only records still on the edge at the widest band
/// reach selection through the edge flag. Each step is one engine call for
/// the whole group, over each query's edge hits longest-first, so lane
/// groups of equal length stay together.
void cascade(const SearchEngine& engine,
             std::span<const SearchProfiles* const> group,
             std::vector<ScreenResult>& screens, std::size_t band) {
  std::vector<std::vector<std::uint32_t>> uncertain(group.size());
  for (std::size_t q = 0; q < group.size(); ++q) {
    const ScreenResult& screen = screens[q];
    for (std::size_t i = 0; i < screen.scores.size(); ++i) {
      if (screen.edge_hit[i] && !screen.exact[i]) {
        uncertain[q].push_back(static_cast<std::uint32_t>(i));
      }
    }
    std::stable_sort(uncertain[q].begin(), uncertain[q].end(),
                     [&engine](std::uint32_t a, std::uint32_t b) {
                       return engine.record(a).size() >
                              engine.record(b).size();
                     });
  }
  const SearchSinks& sinks = engine.sinks();
  for (std::size_t widen = 2; widen <= kCascadeWidening; widen *= 2) {
    std::vector<DbView> views(group.size());
    std::size_t records = 0;
    for (std::size_t q = 0; q < group.size(); ++q) {
      // Longest first: the records the band is narrow against are a prefix.
      const std::size_t m = group[q]->query().size();
      uncertain[q].erase(
          std::find_if(uncertain[q].begin(), uncertain[q].end(),
                       [&](std::uint32_t i) {
                         return !band_is_narrow(m, engine.record(i).size(),
                                                band * widen);
                       }),
          uncertain[q].end());
      for (const std::uint32_t i : uncertain[q]) {
        views[q].push_back(engine.record(i));
      }
      records += views[q].size();
    }
    if (records == 0) return;
    obs::Span span;
    if (sinks.tracer) {
      span = sinks.tracer->span("filter_cascade", "align", sinks.trace_track);
      span.arg("band", static_cast<double>(band * widen));
      span.arg("records", static_cast<double>(records));
    }
    const std::vector<ScreenResult> wider =
        engine.rescreen(group, views, band * widen);
    span.finish();
    for (std::size_t q = 0; q < group.size(); ++q) {
      ScreenResult& screen = screens[q];
      for (std::size_t r = 0; r < uncertain[q].size(); ++r) {
        const std::uint32_t i = uncertain[q][r];
        screen.scores[i] = wider[q].scores[r];
        screen.exact[i] = wider[q].exact[r];
        screen.edge_hit[i] = wider[q].edge_hit[r];
      }
      screen.cells += wider[q].cells;
      std::erase_if(uncertain[q], [&screen](std::uint32_t i) {
        return !screen.edge_hit[i] || screen.exact[i];
      });
    }
  }
}

/// Stages select → rescan → rank for one query's merged screen. `missing`
/// (empty when every partition answered) flags records no screen covered.
SearchOutcome select_rescan_rank(const SearchEngine& engine,
                                 const SearchProfiles& profiles,
                                 ScreenResult screen,
                                 const std::vector<std::uint8_t>& missing,
                                 const SearchRequest& request) {
  SearchOutcome out;
  out.filtered = true;
  std::vector<std::uint32_t> candidates = filter_select_candidates(
      screen, request.k, request.filter, &out.filter);
  if (!missing.empty()) {
    // Never-screened records read score 0 and must not surface as hits.
    out.filter.candidates -= static_cast<std::uint64_t>(std::erase_if(
        candidates, [&missing](std::uint32_t c) { return missing[c] != 0; }));
  }

  // Rescan only the candidates whose screened score lacks the coverage
  // certificate, longest-first so striped8's 16-bit tier packs similar
  // lengths into one SIMD batch (lanes are independent: order never changes
  // scores).
  std::vector<std::uint32_t> rescan_index;
  for (const std::uint32_t c : candidates) {
    if (!screen.exact[c]) rescan_index.push_back(c);
  }
  std::stable_sort(rescan_index.begin(), rescan_index.end(),
                   [&engine](std::uint32_t a, std::uint32_t b) {
                     return engine.record(a).size() > engine.record(b).size();
                   });
  DbView rescan;
  rescan.reserve(rescan_index.size());
  for (const std::uint32_t c : rescan_index) rescan.push_back(engine.record(c));
  const SearchSinks& sinks = engine.sinks();
  obs::Span span;
  if (sinks.tracer) {
    span = sinks.tracer->span("filter_rescore", "align", sinks.trace_track);
    span.arg("candidates", static_cast<double>(candidates.size()));
    span.arg("rescans", static_cast<double>(rescan.size()));
  }
  const SearchResult rescored = engine.rescan(profiles, rescan);
  span.finish();

  SearchResult& result = out.ranked.result;
  result.scores = std::move(screen.scores);
  result.cells = screen.cells + rescored.cells;
  result.overflow_rescans = rescored.overflow_rescans;
  for (std::size_t i = 0; i < rescan_index.size(); ++i) {
    result.scores[rescan_index[i]] = rescored.scores[i];
  }
  out.filter.rescans += rescan_index.size();

  // Only candidates are eligible for the ranking: their scores are exact,
  // so the hit list is correct whenever the screen retained the true top-k.
  for (const std::uint32_t c : candidates) {
    push_top_hit(out.ranked.hits, {c, result.scores[c]}, request.k);
  }
  finish_top_hits(out.ranked.hits);
  if (obs::MetricsRegistry* metrics = sinks.metrics) {
    metrics->add("filter_candidates",
                 static_cast<double>(out.filter.candidates));
    metrics->add("filter_rescans", static_cast<double>(out.filter.rescans));
    metrics->add("filter_band_uncertain",
                 static_cast<double>(out.filter.band_uncertain));
  }
  return out;
}

}  // namespace

std::vector<SearchOutcome> search(const SearchEngine& engine,
                                  std::span<const SearchProfiles* const> group,
                                  const SearchRequest& request) {
  request.validate();
  for (const SearchProfiles* profiles : group) {
    SWDUAL_REQUIRE(profiles != nullptr, "null profile set in search group");
    SWDUAL_REQUIRE(profiles->kernel() == group[0]->kernel(),
                   "a search group must share one kernel");
  }
  std::vector<SearchOutcome> outcomes(group.size());
  if (group.empty()) return outcomes;

  WallTimer timer;
  std::vector<ShardFailure> failures;
  if (!request.filter.enabled()) {
    std::vector<RankedSearchResult> ranked =
        engine.scan(group, request.k, failures);
    for (std::size_t q = 0; q < group.size(); ++q) {
      outcomes[q].ranked = std::move(ranked[q]);
    }
  } else {
    std::vector<ScreenResult> screens =
        engine.screen(group, request.filter.band, failures);
    cascade(engine, group, screens, request.filter.band);
    std::vector<std::uint8_t> missing;
    for (const ShardFailure& failure : failures) {
      if (missing.empty()) missing.assign(screens.front().scores.size(), 0);
      for (const std::uint32_t id : failure.records) missing[id] = 1;
    }
    for (std::size_t q = 0; q < group.size(); ++q) {
      outcomes[q] = select_rescan_rank(engine, *group[q],
                                       std::move(screens[q]), missing,
                                       request);
    }
  }
  const double seconds = timer.seconds();
  for (SearchOutcome& outcome : outcomes) {
    outcome.ranked.result.seconds = seconds;
    outcome.complete = failures.empty();
    outcome.failures = failures;
  }

  // Annotation runs once, on each query's final global top-k: hit scores
  // and order are already fixed, and the search space is the whole
  // database, so annotated answers inherit the topology independence.
  // Stats and the cutoff run per query; the surviving tracebacks, the
  // stage's cost, fan out over the engine's threads.
  if (request.annotate.enabled()) {
    const SearchSinks& sinks = engine.sinks();
    std::vector<std::pair<std::size_t, std::size_t>> tracebacks;  // (q, hit)
    for (std::size_t q = 0; q < group.size(); ++q) {
      std::vector<SearchHit>& hits = outcomes[q].ranked.hits;
      annotate_stats(hits, group[q]->query().size(), request.annotate,
                     *request.stats, engine.db_residues(), sinks.tracer,
                     sinks.metrics, sinks.trace_track);
      if (request.annotate.mode != AnnotateMode::kStatsCigar) continue;
      for (std::size_t i = 0; i < hits.size(); ++i) {
        tracebacks.emplace_back(q, i);
      }
    }
    if (!tracebacks.empty()) {
      obs::Span span;
      if (sinks.tracer) {
        span = sinks.tracer->span("annotate_traceback", "align",
                                  sinks.trace_track);
        span.arg("hits", static_cast<double>(tracebacks.size()));
      }
      // Each traceback writes its own slot; the counters are added once
      // per call, after the fan-out.
      std::vector<TracebackPath> served(tracebacks.size());
      engine.parallel_for(tracebacks.size(), [&](std::size_t t) {
        const auto [q, i] = tracebacks[t];
        SearchHit& hit = outcomes[q].ranked.hits[i];
        served[t] = annotate_cigar(hit, group[q]->query(),
                                   engine.record(hit.db_index),
                                   group[q]->scheme());
      });
      record_tracebacks(span, sinks.metrics, served);
    }
  }
  return outcomes;
}

}  // namespace swdual::align
