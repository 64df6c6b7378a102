// Execution tracing: thread-safe span/event recording over two clock domains.
//
// The paper's evaluation is about *where time goes* on a hybrid platform
// (per-PE busy/idle, dispatch order, makespan), so every layer of the stack
// can emit structured spans through a shared Tracer: the master's
// dispatch/collect/merge phases, each worker's task executions, the parallel
// engine's chunk scans, the scheduler's λ-iterations, and the DES replay.
//
// Two clock domains coexist (see DESIGN.md "Observability"):
//   - wall time:     seconds on this host's steady clock, relative to the
//                    tracer's construction (its epoch);
//   - virtual time:  modeled seconds on the paper's hardware, starting at 0.
// A Span measures wall time by RAII and may additionally carry one virtual
// interval; it then flushes as two events, one per clock. Purely virtual
// producers (the DES) record virtual events directly.
//
// Recording is thread-safe and cheap: each thread appends to its own
// mutex-guarded buffer (uncontended except against flush), and a global
// atomic sequence number gives flush() a total record order. flush() drains
// every buffer and returns the merged, sequence-ordered event list; export
// helpers turn that list into Chrome trace_event JSON (chrome://tracing /
// Perfetto) with one pid per track and separate wall/virtual tid lanes.
//
// The tracer is always compiled. Instrumented layers take an `obs::Tracer*`
// and open no span when it is null, so an untraced run records nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace swdual::obs {

/// Which clock an event's timestamps live on.
enum class Clock { kWall, kVirtual };

/// Track (Chrome pid) convention shared by the instrumented layers: the
/// master owns track 0, worker / PE `i` owns track i + 1. The DES maps its
/// PEs with the same GPUs-first numbering the master uses for worker ids.
inline constexpr std::size_t kMasterTrack = 0;
constexpr std::size_t worker_track(std::size_t worker_id) {
  return worker_id + 1;
}

/// One recorded event. `seq` and `thread` are filled by the tracer.
struct TraceEvent {
  enum class Phase { kComplete, kInstant };

  Phase phase = Phase::kComplete;
  Clock clock = Clock::kWall;
  std::string name;
  std::string category;
  std::size_t track = 0;     ///< logical timeline (master / worker / PE)
  std::uint32_t thread = 0;  ///< recording thread (per-tracer buffer index)
  std::uint64_t seq = 0;     ///< global record order across all threads
  double start = 0.0;        ///< seconds since epoch (wall) or 0 (virtual)
  double end = 0.0;          ///< == start for instants
  std::vector<std::pair<std::string, double>> args;

  double duration() const { return end - start; }

  /// First value recorded under `key`, or `fallback` if absent.
  double arg(const std::string& key, double fallback = 0.0) const;
};

class Tracer;

/// RAII wall-clock span. A default-constructed Span is inert, so call sites
/// can declare one unconditionally and only arm it when a tracer is present.
/// finish() (or destruction) records the wall event, plus a second
/// virtual-clock event if virtual_interval() was set.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Attach a numeric attribute (kept on both clock domains' events).
  void arg(std::string key, double value);

  /// Attach the span's interval on the virtual clock.
  void virtual_interval(double start, double end);

  /// Record now instead of at destruction. Idempotent.
  void finish();

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string name, std::string category,
       std::size_t track);

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
  bool has_virtual_ = false;
  double virtual_start_ = 0.0;
  double virtual_end_ = 0.0;
};

/// Thread-safe event sink. See file comment for the buffering model.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a wall-clock span on `track`.
  Span span(std::string name, std::string category, std::size_t track) {
    return Span(this, std::move(name), std::move(category), track);
  }

  /// Record a zero-duration wall-clock event at the current time.
  void instant(std::string name, std::string category, std::size_t track,
               std::vector<std::pair<std::string, double>> args = {});

  /// Record a fully specified event (used for virtual-clock timelines).
  void record(TraceEvent event);

  /// Wall seconds since this tracer's construction.
  double now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Drain every thread's buffer; events come back in global record order
  /// (ascending seq). Each event is returned exactly once.
  std::vector<TraceEvent> flush();

  struct ThreadBuffer;  ///< opaque per-thread event buffer

 private:
  ThreadBuffer* local_buffer();

  std::uint64_t id_ = 0;  ///< globally unique, validates thread-local caches
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_seq_{0};
  /// Guards the buffer registry. Each ThreadBuffer carries its own mutex
  /// (declared SWDUAL_ACQUIRED_AFTER(registry_mutex_) in trace.cpp) for its
  /// event vector; flush() nests buffer locks inside the registry lock,
  /// record paths take only their own buffer's lock.
  mutable util::Mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      SWDUAL_GUARDED_BY(registry_mutex_);
};

/// Options for the Chrome trace_event exporter.
struct ChromeTraceOptions {
  /// Human-readable process_name per track (pid); unnamed tracks fall back
  /// to "track N".
  std::map<std::size_t, std::string> track_names;
};

/// Write Chrome trace_event JSON (chrome://tracing "JSON Array Format",
/// wrapped in an object): one pid per track, tid 0 is the virtual-time lane,
/// tids 1+ are wall-clock lanes (one per recording thread). Timestamps are
/// microseconds. Output is deterministic for a deterministic event list.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const ChromeTraceOptions& options = {});

/// write_chrome_trace into a string.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const ChromeTraceOptions& options = {});

}  // namespace swdual::obs
