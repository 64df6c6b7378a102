// Search-report rendering: annotated hits (bit scores, E-values attached by
// the search pipeline, align/annotate.h) formatted like a classic
// sequence-search tool report.
#pragma once

#include <string>
#include <vector>

#include "master/master.h"

namespace swdual::core {

/// Render a full human-readable report for a finished search: per query the
/// ranked hits with score/bits/E-value, then the timing summary. Every hit
/// must carry its annotation (run the search with MasterConfig::annotate
/// enabled). Hits with E-value above `max_evalue` are suppressed.
std::string render_search_report(const std::vector<seq::Sequence>& queries,
                                 const std::vector<seq::Sequence>& db,
                                 const master::SearchReport& report,
                                 double max_evalue = 10.0);

}  // namespace swdual::core
