// Message protocol between the SWDUAL master and its workers (Fig. 6).
//
// The paper runs master and slaves as processes; here they are threads and
// the transport is a closable in-process queue, but the protocol steps are
// the paper's: workers register, the master allocates tasks (one task = one
// query against the whole database), workers execute and send results, the
// master merges. Registration is implicit in construction; shutdown is the
// command queue's end-of-stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "align/search.h"
#include "sched/task.h"

namespace swdual::master {

/// A work order: run query `query_index` against the whole database.
struct TaskOrder {
  std::size_t task_id = 0;
  std::size_t query_index = 0;
};

/// A completed task's report back to the master.
struct TaskReport {
  std::size_t task_id = 0;
  std::size_t query_index = 0;
  std::size_t worker_id = 0;
  sched::PeId pe;
  bool failed = false;            ///< worker fault — master must reassign
  std::string error;              ///< why a failed attempt failed
  std::vector<align::SearchHit> hits;  ///< the query's top hits, rank order
  align::FilterStats filter;      ///< what the filter did (zero when off)
  std::uint64_t cells = 0;        ///< DP cells computed
  double wall_seconds = 0.0;      ///< real kernel time on this host
  double virtual_seconds = 0.0;   ///< modeled time on the paper's hardware
};

}  // namespace swdual::master
