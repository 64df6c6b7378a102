// LRU cache of finished query results for the serve layer.
//
// A service that replays real traffic sees heavy repetition (annotation
// pipelines re-submit the same marker genes, interactive users retry), so a
// completed search's ranked hits are worth keeping. The key is everything
// that determines the answer: the query residues, the database identity and
// the scoring parameters. The exact kernel and the resolved SIMD backend are
// deliberately *not* part of the key — every kernel on every backend
// produces bit-identical scores (tests/align/test_backend_equivalence.cpp,
// tests/align/test_sharded_property.cpp), so a hit computed by the
// striped8 kernel on AVX2 is the right answer for the scalar reference on
// an SSE2 host too. Shard topology (shard count, thread counts) is
// excluded for the same reason: sharded results are bit-identical to the
// unsharded search (tests/align/test_sharded_search.cpp), so a cached
// answer is valid at any shard count. test_result_cache.cpp pins the exact
// key layout so a field cannot sneak in unreviewed.
//
// The cache itself is util::LruCache (util/lru_cache.h): thread-safe, and a
// hit handed to a caller stays valid after the entry is evicted.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "align/annotate.h"
#include "align/scoring.h"
#include "align/search.h"
#include "util/lru_cache.h"

namespace swdual::serve {

/// Canonical cache key for one query's result: db identity + scoring
/// parameters (align::scoring_key) + filter config + annotation config +
/// raw query residues. The filter segment appears only when the two-stage
/// filter is enabled: kOff is bit-identical to the exact search, so its key
/// IS the exact search's key and the two share cache entries. A heuristic
/// config changes which hits are returned (band + keep_factor decide the
/// candidate set), so it must split the cache — but the exact kernel, SIMD
/// backend, thread counts, worker types, and shard topology still stay out
/// of the key: the screen is bit-identical across backends, candidate
/// selection is a deterministic global function of the screen, and the
/// candidates' exact rescans score alike under every kernel, so filtered
/// answers are identical across all of them (tests/align/test_filter.cpp,
/// tests/align/test_sharded_property.cpp).
/// The annotate segment follows the same rule: mode kOff adds nothing,
/// while an enabled mode joins the key with its evalue cutoff — the mode
/// decides what a cached hit carries (stats vs. a CIGAR) and the cutoff
/// decides which hits survive, so differently-annotated answers must not
/// alias. Calibration inputs stay out: params are a deterministic function
/// of (scheme, alphabet, db_id), all already in the key.
std::string result_key(std::span<const std::uint8_t> query,
                       const std::string& db_id,
                       const align::ScoringScheme& scheme,
                       const align::FilterConfig& filter = {},
                       const align::AnnotateConfig& annotate = {});

/// Ranked hits by result_key. Values are inserted once per key (first
/// writer wins) and shared with every request that hits them.
using ResultCache = util::LruCache<std::vector<align::SearchHit>>;

}  // namespace swdual::serve
