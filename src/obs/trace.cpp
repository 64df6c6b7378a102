#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>
#include <sstream>

namespace swdual::obs {

double TraceEvent::arg(const std::string& key, double fallback) const {
  for (const auto& [arg_key, arg_value] : args) {
    if (arg_key == key) return arg_value;
  }
  return fallback;
}

// ---------------------------------------------------------------------------
// Span

Span::Span(Tracer* tracer, std::string name, std::string category,
           std::size_t track)
    : tracer_(tracer) {
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.track = track;
  event_.start = tracer_->now();
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      event_(std::move(other.event_)),
      has_virtual_(other.has_virtual_),
      virtual_start_(other.virtual_start_),
      virtual_end_(other.virtual_end_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    event_ = std::move(other.event_);
    has_virtual_ = other.has_virtual_;
    virtual_start_ = other.virtual_start_;
    virtual_end_ = other.virtual_end_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::arg(std::string key, double value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(std::move(key), value);
}

void Span::virtual_interval(double start, double end) {
  if (tracer_ == nullptr) return;
  has_virtual_ = true;
  virtual_start_ = start;
  virtual_end_ = end;
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  event_.end = tracer->now();
  if (has_virtual_) {
    TraceEvent virtual_event = event_;
    virtual_event.clock = Clock::kVirtual;
    virtual_event.start = virtual_start_;
    virtual_event.end = virtual_end_;
    tracer->record(std::move(virtual_event));
  }
  tracer->record(std::move(event_));
}

// ---------------------------------------------------------------------------
// Tracer

struct Tracer::ThreadBuffer {
  /// Uncontended except against flush(). flush() acquires it while holding
  /// the owner's registry_mutex_; the declared order makes the reverse
  /// nesting (registry inside a buffer lock) a compile error under Clang.
  util::Mutex mutex SWDUAL_ACQUIRED_AFTER(owner->registry_mutex_);
  Tracer* owner = nullptr;  ///< the tracer whose registry published us
  std::uint32_t index = 0;
  std::vector<TraceEvent> events SWDUAL_GUARDED_BY(mutex);
};

namespace {

/// Globally unique tracer ids let the thread-local buffer cache detect that
/// it belongs to a different (possibly destroyed) tracer. Ids never repeat,
/// so a stale cache can never be mistaken for a live one.
std::atomic<std::uint64_t> g_next_tracer_id{1};

struct BufferCache {
  std::uint64_t tracer_id = 0;
  Tracer::ThreadBuffer* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::local_buffer() {
  if (t_buffer_cache.tracer_id == id_) return t_buffer_cache.buffer;
  util::MutexLock lock(registry_mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->owner = this;
  buffer->index = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  t_buffer_cache = {id_, raw};
  return raw;
}

void Tracer::record(TraceEvent event) {
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer* buffer = local_buffer();
  event.thread = buffer->index;
  util::MutexLock lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

void Tracer::instant(std::string name, std::string category,
                     std::size_t track,
                     std::vector<std::pair<std::string, double>> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = track;
  event.start = event.end = now();
  event.args = std::move(args);
  record(std::move(event));
}

std::vector<TraceEvent> Tracer::flush() {
  std::vector<TraceEvent> all;
  {
    util::MutexLock lock(registry_mutex_);
    for (auto& buffer : buffers_) {
      util::MutexLock buffer_lock(buffer->mutex);
      all.insert(all.end(), std::make_move_iterator(buffer->events.begin()),
                 std::make_move_iterator(buffer->events.end()));
      buffer->events.clear();
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return all;
}

// ---------------------------------------------------------------------------
// Chrome trace_event export

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microsecond timestamps with fixed millinanosecond precision, so golden
/// traces compare byte-for-byte across runs and platforms.
std::string format_micros(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds * 1e6);
  return buffer;
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Chrome tid lane: the virtual clock gets lane 0 on every pid, wall-clock
/// events one lane per recording thread.
std::uint32_t lane_of(const TraceEvent& event) {
  return event.clock == Clock::kVirtual ? 0 : event.thread + 1;
}

void write_args(std::ostream& out,
                const std::vector<std::pair<std::string, double>>& args) {
  out << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ",";
    out << '"' << json_escape(args[i].first)
        << "\":" << format_value(args[i].second);
  }
  out << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const ChromeTraceOptions& options) {
  std::set<std::size_t> pids;
  std::set<std::pair<std::size_t, std::uint32_t>> lanes;
  for (const TraceEvent& event : events) {
    pids.insert(event.track);
    lanes.insert({event.track, lane_of(event)});
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const std::size_t pid : pids) {
    separator();
    const auto named = options.track_names.find(pid);
    const std::string name = named != options.track_names.end()
                                 ? named->second
                                 : "track " + std::to_string(pid);
    out << "{\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
        << json_escape(name) << "\"}}";
  }
  for (const auto& [pid, tid] : lanes) {
    separator();
    const std::string name =
        tid == 0 ? "virtual" : "wall " + std::to_string(tid - 1);
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"ts\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"" << name
        << "\"}}";
  }

  for (const TraceEvent& event : events) {
    separator();
    out << "{\"ph\":\""
        << (event.phase == TraceEvent::Phase::kInstant ? "i" : "X")
        << "\",\"pid\":" << event.track << ",\"tid\":" << lane_of(event)
        << ",\"ts\":" << format_micros(event.start);
    if (event.phase == TraceEvent::Phase::kInstant) {
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":" << format_micros(event.duration());
    }
    out << ",\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
        << json_escape(event.category) << "\",\"args\":";
    write_args(out, event.args);
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              const ChromeTraceOptions& options) {
  std::ostringstream out;
  write_chrome_trace(out, events, options);
  return out.str();
}

}  // namespace swdual::obs
