#include "core/report.h"

#include <sstream>

#include "align/annotate.h"
#include "util/error.h"
#include "util/table.h"

namespace swdual::core {

std::string render_search_report(const std::vector<seq::Sequence>& queries,
                                 const std::vector<seq::Sequence>& db,
                                 const master::SearchReport& report,
                                 double max_evalue) {
  SWDUAL_REQUIRE(max_evalue > 0, "E-value cutoff must be positive");
  std::ostringstream os;
  for (const master::QueryResult& result : report.results) {
    const seq::Sequence& query = queries[result.query_index];
    os << "Query: " << query.id << " (" << query.length() << " residues)\n";
    TextTable table;
    table.set_header({"subject", "length", "score", "bits", "E-value"});
    std::size_t shown = 0;
    for (const align::SearchHit& hit : result.hits) {
      SWDUAL_REQUIRE(hit.annotation != nullptr,
                     "report hits must be annotated (MasterConfig::annotate)");
      if (hit.annotation->evalue > max_evalue) continue;
      std::ostringstream evalue_text;
      evalue_text.precision(2);
      evalue_text << std::scientific << hit.annotation->evalue;
      table.add_row({db[hit.db_index].id,
                     std::to_string(db[hit.db_index].length()),
                     std::to_string(hit.score),
                     TextTable::fmt(hit.annotation->bits, 1),
                     evalue_text.str()});
      ++shown;
    }
    if (shown == 0) {
      os << "  (no hits below E-value " << max_evalue << ")\n\n";
    } else {
      os << table.render() << '\n';
    }
  }
  os << "search space: " << report.total_cells << " cells; wall "
     << report.wall_seconds << " s; modeled hybrid makespan "
     << report.virtual_makespan << " s (" << report.virtual_gcups
     << " GCUPS)\n";
  return os.str();
}

}  // namespace swdual::core
