#include "serve/cache.h"

#include "align/profile_cache.h"

namespace swdual::serve {

std::string result_key(std::span<const std::uint8_t> query,
                       const std::string& db_id,
                       const align::ScoringScheme& scheme,
                       const align::FilterConfig& filter,
                       const align::AnnotateConfig& annotate) {
  std::string key;
  key.reserve(query.size() + db_id.size() + 64);
  key += db_id;
  key += '/';
  key += align::scoring_key(scheme);
  key += '/';
  if (filter.enabled()) {
    // kOff deliberately adds nothing: the filtered-off answer is the exact
    // answer, so both share one cache entry.
    key += "filter:";
    key += align::filter_mode_name(filter.mode);
    key += ":b";
    key += std::to_string(filter.band);
    key += ":k";
    key += std::to_string(filter.keep_factor);
    key += '/';
  }
  if (annotate.enabled()) {
    // kOff adds nothing, mirroring the filter segment: an unannotated
    // answer is the plain ranked answer.
    key += "annotate:";
    key += align::annotate_mode_name(annotate.mode);
    key += ":e";
    key += std::to_string(annotate.evalue_cutoff);
    key += '/';
  }
  key.append(reinterpret_cast<const char*>(query.data()), query.size());
  return key;
}

}  // namespace swdual::serve
