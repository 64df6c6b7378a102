#include "align/annotate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "align/alignment.h"
#include "align/banded.h"
#include "align/linear_space.h"
#include "align/profile_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/dbgen.h"
#include "util/error.h"

namespace swdual::align {

const char* annotate_mode_name(AnnotateMode mode) {
  switch (mode) {
    case AnnotateMode::kOff:
      return "off";
    case AnnotateMode::kStats:
      return "stats";
    case AnnotateMode::kStatsCigar:
      return "stats+cigar";
  }
  return "unknown";
}

bool parse_annotate_mode(const std::string& name, AnnotateMode& out) {
  if (name == "off") {
    out = AnnotateMode::kOff;
  } else if (name == "stats") {
    out = AnnotateMode::kStats;
  } else if (name == "stats+cigar") {
    out = AnnotateMode::kStatsCigar;
  } else {
    return false;
  }
  return true;
}

void AnnotateConfig::validate() const {
  SWDUAL_REQUIRE(evalue_cutoff > 0 && !std::isnan(evalue_cutoff),
                 "evalue cutoff must be positive (+inf disables the cutoff)");
}

void annotate_stats(std::vector<SearchHit>& hits, std::size_t query_length,
                    const AnnotateConfig& config,
                    const KarlinAltschulParams& params,
                    std::uint64_t db_residues, obs::Tracer* tracer,
                    obs::MetricsRegistry* metrics, std::size_t trace_track) {
  if (hits.empty()) return;
  const std::size_t total = hits.size();
  {
    obs::Span span;
    if (tracer) {
      span = tracer->span("annotate_stats", "align", trace_track);
      span.arg("hits", static_cast<double>(total));
    }
    for (SearchHit& hit : hits) {
      auto annotation = std::make_shared<HitAnnotation>();
      annotation->evalue = evalue(params, hit.score, query_length,
                                  db_residues);
      annotation->bits = bit_score(params, hit.score);
      hit.annotation = std::move(annotation);
    }
    // The cutoff drops hits AFTER ranking; e-values are monotone in score,
    // so the survivors are a prefix of the ranked list and annotated
    // results remain a prefix-filter of the unannotated ranking.
    std::erase_if(hits, [&](const SearchHit& hit) {
      return hit.annotation->evalue > config.evalue_cutoff;
    });
    span.arg("dropped", static_cast<double>(total - hits.size()));
  }
  if (metrics) {
    metrics->add("annotate_hits_total", static_cast<double>(total));
    metrics->add("annotate_cutoff_dropped",
                 static_cast<double>(total - hits.size()));
  }
}

namespace {

// The one band half-width a traceback tries before the linear-space one.
constexpr std::size_t kTracebackBand = 16;

}  // namespace

TracebackPath annotate_cigar(SearchHit& hit,
                             std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> record,
                             const ScoringScheme& scheme) {
  SWDUAL_REQUIRE(hit.annotation != nullptr,
                 "annotate_cigar needs the hit's stats annotation");
  // A banded path is a real path, so it never scores above the optimum: a
  // band whose best equals the hit's exact score holds an optimal
  // alignment.
  TracebackPath path = TracebackPath::kBanded;
  Alignment alignment =
      banded_gotoh_align(query, record, scheme, kTracebackBand);
  if (alignment.score != hit.score) {
    path = TracebackPath::kLinear;
    alignment = sw_align_affine_linear(query, record, scheme);
  }
  // Search kernels and the traceback compute the same Gotoh recurrence;
  // a disagreement here is a kernel or traceback bug, never an input one.
  SWDUAL_CHECK(alignment.score == hit.score,
               "traceback score disagrees with search score");
  auto annotation = std::make_shared<HitAnnotation>(*hit.annotation);
  annotation->cigar = alignment.cigar();
  annotation->query_begin = alignment.query_begin;
  annotation->query_end = alignment.query_end;
  annotation->db_begin = alignment.db_begin;
  annotation->db_end = alignment.db_end;
  hit.annotation = std::move(annotation);
  return path;
}

void record_tracebacks(obs::Span& span, obs::MetricsRegistry* metrics,
                       std::span<const TracebackPath> served) {
  const auto banded = static_cast<double>(
      std::count(served.begin(), served.end(), TracebackPath::kBanded));
  const double linear = static_cast<double>(served.size()) - banded;
  span.arg("banded", banded);
  span.arg("linear", linear);
  if (metrics) {
    metrics->add("annotate_cigar_banded", banded);
    metrics->add("annotate_cigar_linear", linear);
  }
}

void annotate_hits(std::vector<SearchHit>& hits,
                   std::span<const std::uint8_t> query, const DbView& db,
                   const ScoringScheme& scheme, const AnnotateConfig& config,
                   const KarlinAltschulParams& params,
                   std::uint64_t db_residues, obs::Tracer* tracer,
                   obs::MetricsRegistry* metrics, std::size_t trace_track) {
  if (!config.enabled()) return;
  config.validate();
  if (hits.empty()) return;
  annotate_stats(hits, query.size(), config, params, db_residues, tracer,
                 metrics, trace_track);
  if (config.mode != AnnotateMode::kStatsCigar) return;

  obs::Span span;
  if (tracer) {
    span = tracer->span("annotate_traceback", "align", trace_track);
    span.arg("hits", static_cast<double>(hits.size()));
  }
  std::vector<TracebackPath> served;
  served.reserve(hits.size());
  for (SearchHit& hit : hits) {
    SWDUAL_CHECK(hit.db_index < db.size(), "hit index outside the database");
    served.push_back(annotate_cigar(hit, query, db[hit.db_index], scheme));
  }
  record_tracebacks(span, metrics, served);
}

std::uint64_t db_residue_count(const DbView& db) {
  std::uint64_t total = 0;
  for (const auto& record : db) total += record.size();
  return total;
}

namespace {

std::string alphabet_name(const seq::Alphabet& alphabet) {
  switch (alphabet.kind()) {
    case seq::AlphabetKind::kDna:
      return "dna";
    case seq::AlphabetKind::kRna:
      return "rna";
    case seq::AlphabetKind::kProtein:
      return "protein";
  }
  return "unknown";
}

/// Background residue frequencies for calibration: Robinson–Robinson for
/// protein (matching Alphabet::protein()'s first 20 codes), uniform over
/// the non-wildcard letters for nucleotide alphabets.
std::vector<double> background_frequencies(const seq::Alphabet& alphabet) {
  if (alphabet.kind() == seq::AlphabetKind::kProtein) {
    return seq::amino_acid_frequencies();
  }
  const std::size_t letters = alphabet.size() - 1;  // exclude the wildcard
  return std::vector<double>(letters, 1.0 / static_cast<double>(letters));
}

}  // namespace

std::shared_ptr<const KarlinAltschulParams> StatsCache::acquire(
    const ScoringScheme& scheme, const seq::Alphabet& alphabet,
    const std::string& db_id) {
  const std::string key =
      scoring_key(scheme) + '/' + alphabet_name(alphabet) + '/' + db_id;
  // Deterministic (fixed seed + alphabet background), so a racing duplicate
  // calibrates the identical value and the first insert wins.
  return LruCache::acquire(key, [&] {
    return std::make_shared<const KarlinAltschulParams>(
        calibrate_gapped_params(scheme, background_frequencies(alphabet)));
  });
}

}  // namespace swdual::align
