// Annotated search results: Karlin–Altschul significance + CIGAR traceback.
//
// A raw Smith–Waterman score is not a result — production services in the
// BLAST / SWAPHI lineage report, for every hit, how surprising the score is
// (e-value, bit score) and the alignment itself. This module turns the
// library islands in statistics.h / traceback.h / locate.h into a pipeline
// stage: annotate_hits() decorates an already-merged top-k hit list in
// place, and the search pipeline (align/pipeline.h) is its one caller.
//
// Placement is the key invariant: annotation runs ONCE, post-merge, on the
// global top-k winners — never per chunk or per shard. The hit list an
// engine produces is already bit-identical across backends, thread counts,
// chunking, and shard topologies, and annotation is a pure per-hit function
// of (query, record, scheme, params, db_residues), so annotated results
// inherit that topology independence by construction. The cost is k
// tracebacks of O(m·n̂) on winners, negligible next to the full DB scan.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/search.h"
#include "align/statistics.h"
#include "seq/alphabet.h"
#include "util/mutex.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::align {

/// How much annotation a search should attach to its hits.
enum class AnnotateMode {
  kOff,         ///< plain hits, annotation pointer stays null
  kStats,       ///< e-value + bit score per hit
  kStatsCigar,  ///< stats plus a validated CIGAR traceback per hit
};

const char* annotate_mode_name(AnnotateMode mode);
bool parse_annotate_mode(const std::string& name, AnnotateMode& out);

/// Annotation policy for a search.
struct AnnotateConfig {
  AnnotateMode mode = AnnotateMode::kOff;

  /// Hits with evalue > cutoff are dropped AFTER ranking (the kept prefix
  /// of the top-k is unchanged, so annotated results stay a prefix-filter
  /// of the unannotated ranking). The default +infinity keeps every hit,
  /// making annotated and unannotated hit lists identical in scores/order.
  double evalue_cutoff = std::numeric_limits<double>::infinity();

  bool enabled() const { return mode != AnnotateMode::kOff; }

  /// Throws InvalidArgument on a non-positive or NaN cutoff (+inf is the
  /// "no cutoff" value and is valid).
  void validate() const;
};

/// Per-hit annotation payload, shared immutably via SearchHit::annotation.
struct HitAnnotation {
  double evalue = 0.0;
  double bits = 0.0;

  /// SAM-style CIGAR (kStatsCigar only; empty under kStats). The aligned
  /// region's 1-based inclusive coordinates accompany it; all four are 0
  /// for an empty (score-0) alignment.
  std::string cigar;
  std::size_t query_begin = 0, query_end = 0;
  std::size_t db_begin = 0, db_end = 0;
};

/// Decorate a merged, ranked hit list in place: compute evalue/bits for
/// every hit with `params` and search space m = |query|, n = db_residues,
/// drop hits beyond config.evalue_cutoff, then (kStatsCigar) traceback each
/// survivor against its record — `record(db_index)` must return the residue
/// span of that database record. The traceback score is checked against the
/// hit's search score (they are the same Gotoh recurrence; a mismatch is a
/// kernel bug, reported as swdual::Error). Emits annotate_stats /
/// annotate_traceback spans on `trace_track` and annotate_hits_total /
/// annotate_cutoff_dropped metrics when sinks are provided. No-op when
/// config.enabled() is false.
void annotate_hits(
    std::vector<SearchHit>& hits, std::span<const std::uint8_t> query,
    const std::function<std::span<const std::uint8_t>(std::size_t)>& record,
    const ScoringScheme& scheme, const AnnotateConfig& config,
    const KarlinAltschulParams& params, std::uint64_t db_residues,
    obs::Tracer* tracer = nullptr, obs::MetricsRegistry* metrics = nullptr,
    std::size_t trace_track = 0);

/// DbView convenience overload: record i resolves to db[i].
void annotate_hits(std::vector<SearchHit>& hits,
                   std::span<const std::uint8_t> query, const DbView& db,
                   const ScoringScheme& scheme, const AnnotateConfig& config,
                   const KarlinAltschulParams& params,
                   std::uint64_t db_residues, obs::Tracer* tracer = nullptr,
                   obs::MetricsRegistry* metrics = nullptr,
                   std::size_t trace_track = 0);

/// Total residues in a database view (the Karlin–Altschul search space `n`).
std::uint64_t db_residue_count(const DbView& db);

/// Thread-safe cache of calibrated Karlin–Altschul parameters, keyed by
/// (scoring scheme, alphabet, database id) — the db id keeps two databases'
/// stats separate should calibration ever become db-dependent, and mirrors
/// how serve keys its ResultCache. Calibration (a few hundred Gotoh
/// alignments) runs OUTSIDE the lock on a miss; a racing duplicate resolves
/// in favour of the first writer, so every caller sees one stable object.
/// Deterministic: fixed seed, background frequencies chosen by alphabet
/// (Robinson–Robinson for protein, uniform for DNA/RNA).
class StatsCache {
 public:
  explicit StatsCache(std::size_t capacity = 16);

  StatsCache(const StatsCache&) = delete;
  StatsCache& operator=(const StatsCache&) = delete;

  std::shared_ptr<const KarlinAltschulParams> acquire(
      const ScoringScheme& scheme, const seq::Alphabet& alphabet,
      const std::string& db_id);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const;

  /// Leaf capability for lock-order declarations (never lock directly;
  /// every public method is self-locking).
  util::Mutex& capability() const SWDUAL_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  using Entry =
      std::pair<std::string, std::shared_ptr<const KarlinAltschulParams>>;

  std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::list<Entry> lru_ SWDUAL_GUARDED_BY(mutex_);  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      SWDUAL_GUARDED_BY(mutex_);
  std::uint64_t hits_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SWDUAL_GUARDED_BY(mutex_) = 0;
};

}  // namespace swdual::align
