// Annotated search results: Karlin–Altschul significance + CIGAR traceback.
//
// A raw Smith–Waterman score is not a result — production services in the
// BLAST / SWAPHI lineage report, for every hit, how surprising the score is
// (e-value, bit score) and the alignment itself. This module turns the
// library islands in statistics.h / banded.h / linear_space.h into pipeline
// stages: annotate_stats() decorates an already-merged top-k hit list in
// place and applies the cutoff, annotate_cigar() adds one hit's traceback,
// and the search pipeline (align/pipeline.h) is their one caller;
// annotate_hits() runs both on one hit list.
//
// Placement is the key invariant: annotation runs ONCE, post-merge, on the
// global top-k winners — never per chunk or per shard. The hit list an
// engine produces is already bit-identical across backends, thread counts,
// chunking, and shard topologies, and annotation is a pure per-hit function
// of (query, record, scheme, params, db_residues), so annotated results
// inherit that topology independence by construction — including which of
// several co-optimal CIGARs is reported, because every path runs the same
// two tracebacks in the same order. A hit whose optimal path stays near the
// band's diagonal costs O(m·w) time and m·(2w + 1) direction bytes at
// half-width w = 16; any other hit falls back to the linear-space
// traceback, O(m·n) time. Either way memory stays O(m + n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/search.h"
#include "align/statistics.h"
#include "seq/alphabet.h"
#include "util/lru_cache.h"

namespace swdual::obs {
class MetricsRegistry;
class Span;
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

/// Stats stage: set evalue/bits on every hit of a merged, ranked hit list
/// (search space m = query_length, n = db_residues; the annotation pointer
/// is replaced), then drop hits beyond config.evalue_cutoff. Emits an
/// annotate_stats span on `trace_track` and annotate_hits_total /
/// annotate_cutoff_dropped metrics when sinks are provided. `config` must
/// be enabled and valid.
void annotate_stats(std::vector<SearchHit>& hits, std::size_t query_length,
                    const AnnotateConfig& config,
                    const KarlinAltschulParams& params,
                    std::uint64_t db_residues, obs::Tracer* tracer = nullptr,
                    obs::MetricsRegistry* metrics = nullptr,
                    std::size_t trace_track = 0);

/// Which traceback served a hit's CIGAR.
enum class TracebackPath : std::uint8_t {
  kBanded,  ///< banded_gotoh_align at half-width 16, certified by its score
  kLinear,  ///< the linear-space traceback (sw_align_affine_linear)
};

/// CIGAR stage for one hit that already carries its stats annotation:
/// re-align `query` against `record` and attach the CIGAR and aligned
/// ranges. The traceback first runs banded_gotoh_align at half-width 16 and
/// keeps its path when the band's best equals the hit's score; otherwise it
/// runs the linear-space traceback (sw_align_affine_linear). The traceback
/// score is checked against the hit's search score (they are the same Gotoh
/// recurrence; a mismatch is a kernel bug, reported as swdual::Error).
/// Returns the path that served the hit. Touches only `hit`, so distinct
/// hits may be annotated concurrently.
TracebackPath annotate_cigar(SearchHit& hit,
                             std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> record,
                             const ScoringScheme& scheme);

/// Bookkeeping of one annotate_traceback span, whose hits annotate_cigar
/// served along `served`: sets the span's `banded` and `linear` args, the
/// hits each path served, and adds them once to the annotate_cigar_banded /
/// annotate_cigar_linear counters when `metrics` is set.
void record_tracebacks(obs::Span& span, obs::MetricsRegistry* metrics,
                       std::span<const TracebackPath> served);

/// Both stages on one hit list, serially: annotate_stats, then
/// (kStatsCigar) annotate_cigar for every survivor against
/// db[hit.db_index] under one annotate_traceback span, recorded through
/// record_tracebacks. No-op when config.enabled() is false; throws
/// InvalidArgument on an invalid config.
void annotate_hits(std::vector<SearchHit>& hits,
                   std::span<const std::uint8_t> query, const DbView& db,
                   const ScoringScheme& scheme, const AnnotateConfig& config,
                   const KarlinAltschulParams& params,
                   std::uint64_t db_residues, obs::Tracer* tracer = nullptr,
                   obs::MetricsRegistry* metrics = nullptr,
                   std::size_t trace_track = 0);

/// Total residues in a database view (the Karlin–Altschul search space `n`).
std::uint64_t db_residue_count(const DbView& db);

/// Cache of calibrated Karlin–Altschul parameters, keyed by (scoring
/// scheme, alphabet, database id) — the db id keeps two databases' stats
/// separate should calibration ever become db-dependent, and mirrors how
/// serve keys its ResultCache. The LRU is util::LruCache: calibration (a
/// few hundred Gotoh alignments) runs OUTSIDE the lock on a miss, and a
/// racing duplicate resolves in favour of the first writer, so every caller
/// sees one stable object. Deterministic: fixed seed, background
/// frequencies chosen by alphabet (Robinson–Robinson for protein, uniform
/// for DNA/RNA).
class StatsCache : private util::LruCache<KarlinAltschulParams> {
 public:
  explicit StatsCache(std::size_t capacity = 16) : LruCache(capacity) {}

  std::shared_ptr<const KarlinAltschulParams> acquire(
      const ScoringScheme& scheme, const seq::Alphabet& alphabet,
      const std::string& db_id);

  using LruCache::capability;
  using LruCache::stats;
};

}  // namespace swdual::align
