#include "align/parallel_search.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

namespace {

/// Records per lane batch of the profiles' exact scan (1: no batching).
std::size_t exact_batch(const SearchProfiles& profiles) {
  return profiles.kernel() == KernelKind::kInterSeq
             ? backend_lanes16(profiles.backend())
             : 1;
}

}  // namespace

std::vector<RecordRange> balanced_ranges(const DbView& db, std::size_t parts,
                                         std::size_t batch) {
  const std::size_t n = db.size();
  if (n == 0) return {};
  // Residue-balanced cuts: end a range after the record whose cumulative
  // residue count crosses the next multiple of total/parts. Every range
  // gets at least one record.
  parts = std::clamp<std::size_t>(parts, 1, n);
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + std::max<std::uint64_t>(db[i].size(), 1);
  }
  std::vector<RecordRange> cuts;
  cuts.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < parts; ++c) {
    const std::uint64_t target = prefix[n] * (c + 1) / parts;
    std::size_t end = begin + 1;
    while (end < n && prefix[end] < target) ++end;
    // Leave one record for each remaining range.
    end = std::min(end, n - (parts - 1 - c));
    end = std::max(end, begin + 1);
    cuts.push_back({begin, end});
    begin = end;
  }
  cuts.back().end = n;
  if (batch <= 1 || cuts.size() <= 1) return cuts;

  // Snap each interior cut to the nearest batch multiple.
  std::vector<RecordRange> out;
  out.reserve(cuts.size());
  begin = 0;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::size_t end =
        std::min(n, (cuts[c].end + batch / 2) / batch * batch);
    if (end <= begin) continue;
    out.push_back({begin, end});
    begin = end;
  }
  if (begin < n) out.push_back({begin, n});
  return out;
}

SearchResult search_ranges(const SearchEngine& engine,
                           const SearchProfiles& profiles, const DbView& view,
                           std::size_t parts) {
  const std::vector<RecordRange> ranges =
      balanced_ranges(view, parts, exact_batch(profiles));
  std::vector<SearchResult> scanned(ranges.size());
  engine.parallel_for(ranges.size(), [&](std::size_t r) {
    scanned[r] =
        search_range(profiles, view, ranges[r].begin, ranges[r].end);
  });
  SearchResult result;
  result.scores.reserve(view.size());
  for (const SearchResult& part : scanned) {
    result.scores.insert(result.scores.end(), part.scores.begin(),
                         part.scores.end());
    result.cells += part.cells;
    result.overflow_rescans += part.overflow_rescans;
  }
  return result;
}

ParallelSearchEngine::ParallelSearchEngine(const DbView& db,
                                           const ParallelSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}),
      db_(db) {
  original_index_.resize(db_.size());
  std::iota(original_index_.begin(), original_index_.end(), 0);
  std::stable_sort(original_index_.begin(), original_index_.end(),
                   [&db](std::size_t a, std::size_t b) {
                     return db[a].size() > db[b].size();
                   });
  for (std::size_t p = 0; p < db_.size(); ++p) {
    db_[p] = db[original_index_[p]];
  }
  init(options);
}

ParallelSearchEngine::ParallelSearchEngine(const seq::MappedSwdb& db,
                                           const ParallelSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}) {
  // Same longest-first permutation the DbView ctor computes, but read from
  // the database's lane-batch index (identical tie-breaking by record id),
  // and every span points into the shared mapping — no copies, no sort.
  original_index_.reserve(db.size());
  db_.reserve(db.size());
  for (const std::uint32_t id : db.lane_order()) {
    original_index_.push_back(id);
    db_.push_back(db.residues(id));
  }
  init(options);
}

void ParallelSearchEngine::init(const ParallelSearchOptions& options) {
  permuted_pos_.resize(original_index_.size());
  for (std::size_t p = 0; p < original_index_.size(); ++p) {
    permuted_pos_[original_index_[p]] = p;
  }
  total_residues_ = db_residue_count(db_);
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  chunk_records_ = options.chunk_records;
  balanced_parts_ =
      threads * std::max<std::size_t>(1, options.chunks_per_thread);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

std::vector<RecordRange> ParallelSearchEngine::chunk_ranges(
    std::size_t batch) const {
  if (chunk_records_ == 0) {
    return balanced_ranges(db_, balanced_parts_, batch);
  }
  const std::size_t step = (chunk_records_ + batch - 1) / batch * batch;
  std::vector<RecordRange> out;
  for (std::size_t begin = 0; begin < db_.size(); begin += step) {
    out.push_back({begin, std::min(begin + step, db_.size())});
  }
  return out;
}

void ParallelSearchEngine::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (pool_ && count > 1) {
    swdual::parallel_for(*pool_, count, fn);
  } else {
    SearchEngine::parallel_for(count, fn);
  }
}

SearchResult ParallelSearchEngine::rescan(const SearchProfiles& profiles,
                                          const DbView& candidates) const {
  return search_ranges(*this, profiles, candidates, balanced_parts_);
}

SearchResult ParallelSearchEngine::search(
    const SearchProfiles& profiles) const {
  const SearchProfiles* group[] = {&profiles};
  return std::move(search_ranked_many(group, 0).front().result);
}

std::vector<RankedSearchResult> ParallelSearchEngine::search_ranked_many(
    std::span<const SearchProfiles* const> profiles, std::size_t top_k) const {
  std::vector<RankedSearchResult> results(profiles.size());
  if (profiles.empty()) return results;
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
    SWDUAL_REQUIRE(p->kernel() == profiles[0]->kernel(),
                   "multi-query groups must share one kernel");
  }
  WallTimer timer;

  // The inter-sequence kernel processes the (length-sorted) records in
  // groups of one SIMD batch; keep chunk boundaries on batch multiples so
  // no batch is split mid-vector across two chunks.
  const std::vector<RecordRange> chunks =
      chunk_ranges(exact_batch(*profiles[0]));

  // chunk-major outcomes: per_chunk[c][q] is chunk c scanned with query q,
  // the chunk's records scanned once per query while they are hot; hits are
  // chunk-local top-k heaps on original indices.
  const SearchSinks& sink = sinks();
  std::vector<std::vector<RankedSearchResult>> per_chunk(chunks.size());
  parallel_for(chunks.size(), [&](std::size_t c) {
    const RecordRange& chunk = chunks[c];
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("chunk_scan", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    std::vector<RankedSearchResult>& outcomes = per_chunk[c];
    outcomes.resize(profiles.size());
    std::uint64_t cells = 0;
    for (std::size_t q = 0; q < profiles.size(); ++q) {
      RankedSearchResult& outcome = outcomes[q];
      outcome.result = search_range(*profiles[q], db_, chunk.begin, chunk.end);
      cells += outcome.result.cells;
      if (top_k == 0) continue;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        push_top_hit(
            outcome.hits,
            {original_index_[i], outcome.result.scores[i - chunk.begin]},
            top_k);
      }
    }
    span.arg("cells", static_cast<double>(cells));
    if (sink.metrics) {
      sink.metrics->observe("chunk_scan_seconds", chunk_timer.seconds());
    }
  });

  // Deterministic merge: chunks reduced in index order, scores scattered
  // through the inverse permutation back to database order.
  const double elapsed = timer.seconds();
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    RankedSearchResult& ranked = results[q];
    SearchResult& merged = ranked.result;
    merged.scores.assign(db_.size(), 0);
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const RecordRange& chunk = chunks[c];
      const SearchResult& r = per_chunk[c][q].result;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        merged.scores[original_index_[i]] = r.scores[i - chunk.begin];
      }
      merged.cells += r.cells;
      merged.overflow_rescans += r.overflow_rescans;
      for (const SearchHit& hit : per_chunk[c][q].hits) {
        push_top_hit(ranked.hits, hit, top_k);
      }
    }
    finish_top_hits(ranked.hits);
    merged.seconds = elapsed;
  }
  return results;
}

std::vector<ScreenResult> ParallelSearchEngine::screen_many(
    std::span<const SearchProfiles* const> profiles, std::size_t band) const {
  std::vector<ScreenResult> merged(profiles.size());
  for (const SearchProfiles* p : profiles) {
    SWDUAL_REQUIRE(p != nullptr, "null profile set in multi-query group");
  }
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    merged[q].scores.assign(db_.size(), 0);
    merged[q].exact.assign(db_.size(), 0);
    merged[q].edge_hit.assign(db_.size(), 0);
  }
  if (db_.empty() || profiles.empty()) return merged;

  // The banded kernel batches byte lanes; keep those batches unsplit the
  // same way the exact scan aligns interseq chunks to the 16-bit lanes.
  const std::vector<RecordRange> chunks = chunk_ranges(
      profiles[0]->kernel() == KernelKind::kScalar
          ? 1
          : backend_lanes8(profiles[0]->backend()));

  const SearchSinks& sink = sinks();
  std::vector<std::vector<ScreenResult>> per_chunk(chunks.size());
  parallel_for(chunks.size(), [&](std::size_t c) {
    const RecordRange& chunk = chunks[c];
    obs::Span span;
    if (sink.tracer) {
      span = sink.tracer->span("filter_screen", "align", sink.trace_track);
      span.arg("chunk", static_cast<double>(c));
      span.arg("records", static_cast<double>(chunk.end - chunk.begin));
      span.arg("queries", static_cast<double>(profiles.size()));
    }
    WallTimer chunk_timer;
    for (const SearchProfiles* p : profiles) {
      per_chunk[c].push_back(
          screen_range(*p, db_, chunk.begin, chunk.end, band));
    }
    if (sink.metrics) {
      sink.metrics->observe("chunk_scan_seconds", chunk_timer.seconds());
    }
  });

  // Scatter back to database order through the inverse permutation, like
  // the exact scan's merge — per-record screen values are chunk-independent.
  for (std::size_t q = 0; q < profiles.size(); ++q) {
    ScreenResult& out = merged[q];
    for (std::size_t c = 0; c < per_chunk.size(); ++c) {
      const RecordRange& chunk = chunks[c];
      const ScreenResult& r = per_chunk[c][q];
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t at = original_index_[i];
        out.scores[at] = r.scores[i - chunk.begin];
        out.exact[at] = r.exact[i - chunk.begin];
        out.edge_hit[at] = r.edge_hit[i - chunk.begin];
      }
      out.cells += r.cells;
    }
  }
  return merged;
}

}  // namespace swdual::align
