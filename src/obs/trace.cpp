#include "obs/trace.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace specdag::obs {

namespace {

// One buffered trace event. Args are stored inline (the instrumentation
// never needs more than four); string keys are literals, stored by pointer.
struct Event {
  char phase;             // 'B','E','s','f','i'
  const char* name;
  std::uint64_t ts_ns;
  std::uint32_t tid;
  std::uint64_t id = 0;   // flow id for 's'/'f'
  trace_detail::TraceArg args[4];
  std::size_t num_args = 0;
};

// Sequential per-thread id: stable within a process, compact in the viewer.
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Thread names are a process-global property (a thread is one viewer track
// no matter which run's context it records into), kept here and stamped
// into every written file as synthesized 'M' metadata events.
struct ThreadNames {
  std::mutex mutex;
  std::map<std::uint32_t, std::string> by_tid;
};

ThreadNames& thread_names() {
  static ThreadNames* names = new ThreadNames();
  return *names;
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_args_json(std::string& out, const Event& event) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < event.num_args; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += event.args[i].key;
    out += "\":";
    out += std::to_string(event.args[i].value);
  }
  out += '}';
}

// Serializes one event as a trace-viewer JSON object. Timestamps are in
// microseconds (the trace-event format's unit); ns precision is kept via
// the fractional part.
std::string format_ts_us(std::uint64_t ts_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ts_ns / 1000),
                static_cast<unsigned long long>(ts_ns % 1000));
  return buf;
}

void append_event_json(std::string& out, const Event& event) {
  out += "{\"ph\":\"";
  out += event.phase;
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(event.tid);
  if (event.phase == 's' || event.phase == 'f') {
    out += ",\"ts\":" + format_ts_us(event.ts_ns);
    out += ",\"name\":\"";
    out += event.name;
    out += "\",\"cat\":\"flow\",\"id\":";
    out += std::to_string(event.id);
    if (event.phase == 'f') out += ",\"bp\":\"e\"";
    out += '}';
    return;
  }
  out += ",\"ts\":" + format_ts_us(event.ts_ns);
  out += ",\"name\":\"";
  out += event.name;
  out += "\",\"cat\":\"specdag\"";
  if (event.phase == 'i') out += ",\"s\":\"t\"";
  out += ',';
  append_args_json(out, event);
  out += '}';
}

void append_thread_name_json(std::string& out, std::uint32_t tid,
                             const std::string& name) {
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
  append_json_escaped(out, name);
  out += "\"}}";
}

bool write_trace_file(const std::string& path, const std::vector<Event>& events) {
  // Synthesize metadata for every named thread that appears in the buffer —
  // including pool workers that were named long before this session (or
  // under a different run's context).
  std::map<std::uint32_t, std::string> names;
  {
    ThreadNames& registry = thread_names();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const Event& event : events) {
      auto it = registry.by_tid.find(event.tid);
      if (it != registry.by_tid.end()) names.emplace(it->first, it->second);
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string buffer;
  buffer.reserve(256);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [tid, name] : names) {
    buffer.clear();
    if (!first) buffer += ",\n";
    append_thread_name_json(buffer, tid, name);
    out << buffer;
    first = false;
  }
  for (const Event& event : events) {
    buffer.clear();
    if (!first) buffer += ",\n";
    append_event_json(buffer, event);
    out << buffer;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace

// Per-context trace session state. `epoch` counts sessions of THIS context;
// spans compare it on close so a span straddling stop/start never emits an
// unmatched E into the next session's buffer.
struct Context::TraceBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  std::string path;
  std::uint64_t epoch = 0;
  bool active = false;  // mirror of Context::tracing_, readable under mutex
};

// Context's ctor/dtor are defined here (not context.cpp) because the
// TraceBuffer pimpl must be a complete type wherever the unique_ptr's
// destructor is instantiated.
namespace context_detail {
std::uint64_t next_context_epoch();
}  // namespace context_detail

Context::Context(bool metrics_on)
    : metrics_on_(metrics_on), epoch_(context_detail::next_context_epoch()) {}

Context::~Context() {
  for (auto& slot : counter_cells_) delete slot.load(std::memory_order_acquire);
  for (auto& slot : histogram_cells_) delete slot.load(std::memory_order_acquire);
}

namespace {

// Appends an event stamped `ts_ns` to `ctx`'s buffer while a session is
// active — for a nonzero `epoch`, only while that session is (a span's E
// must land beside its B). Returns the session epoch, 0 if nothing was
// appended.
template <typename Fill>
std::uint64_t append_event(Context& ctx, std::uint64_t ts_ns, std::uint64_t epoch, Fill&& fill) {
  Context::TraceBuffer* buffer = ctx.trace_buffer();
  if (buffer == nullptr) return 0;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  if (!buffer->active || (epoch != 0 && buffer->epoch != epoch)) return 0;
  Event event;
  event.ts_ns = ts_ns;
  event.tid = thread_id();
  fill(event);
  buffer->events.push_back(event);
  return buffer->epoch;
}

void add_args(Event& event, const trace_detail::TraceArg* args, std::size_t num_args) {
  for (std::size_t i = 0; i < num_args && event.num_args < 4; ++i) {
    event.args[event.num_args++] = args[i];
  }
}

}  // namespace

namespace trace_detail {

std::uint64_t begin_span(Context& ctx, const char* name, std::uint64_t ts_ns,
                         std::initializer_list<TraceArg> args) {
  return append_event(ctx, ts_ns, 0, [&](Event& event) {
    event.phase = 'B';
    event.name = name;
    add_args(event, args.begin(), args.size());
  });
}

void end_span(Context& ctx, const char* name, std::uint64_t epoch, std::uint64_t ts_ns,
              const TraceArg* args, std::size_t num_args) {
  if (epoch == 0) return;  // the B was never appended
  append_event(ctx, ts_ns, epoch, [&](Event& event) {
    event.phase = 'E';
    event.name = name;
    add_args(event, args, num_args);
  });
}

void flow_start(const char* name, std::uint64_t flow_id) {
  append_event(Context::current(), now_ns(), 0, [&](Event& event) {
    event.phase = 's';
    event.name = name;
    event.id = flow_id;
  });
}

void flow_finish(const char* name, std::uint64_t flow_id) {
  append_event(Context::current(), now_ns(), 0, [&](Event& event) {
    event.phase = 'f';
    event.name = name;
    event.id = flow_id;
  });
}

void instant(const char* name, std::initializer_list<TraceArg> args) {
  append_event(Context::current(), now_ns(), 0, [&](Event& event) {
    event.phase = 'i';
    event.name = name;
    add_args(event, args.begin(), args.size());
  });
}

}  // namespace trace_detail

void Context::start_trace(const std::string& path) {
  {
    // The buffer is created once and never destroyed before the context:
    // emitters that pass the tracing_ acquire-load can use it lock-free.
    std::lock_guard<std::mutex> creation_lock(cells_mutex_);
    if (trace_ == nullptr) trace_ = std::make_unique<TraceBuffer>();
  }
  {
    std::lock_guard<std::mutex> lock(trace_->mutex);
    trace_->events.clear();
    trace_->path = path;
    ++trace_->epoch;
    trace_->active = true;
  }
  tracing_.store(true, std::memory_order_release);
}

bool Context::stop_trace() {
  TraceBuffer* buffer = trace_buffer();
  if (buffer == nullptr) return false;
  std::vector<Event> events;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (!buffer->active) return false;
    buffer->active = false;
    events.swap(buffer->events);
    path = std::move(buffer->path);
    buffer->path.clear();
  }
  tracing_.store(false, std::memory_order_release);
  if (!write_trace_file(path, events)) {
    SPECDAG_LOG(Warn) << "failed to write trace file: " << path;
    return false;
  }
  SPECDAG_LOG(Info) << "wrote " << events.size() << " trace events to " << path;
  return true;
}

namespace {

// Indexed by Phase.
constexpr const char* kPhaseNames[] = {
    "setup", "round",  "advance",       "tipsel",       "tipsel.reference", "train",
    "exec.train", "eval",  "commit", "encode.inline", "encode.async", "finalize"};
constexpr std::size_t kNumPhases = std::size(kPhaseNames);
static_assert(kNumPhases == static_cast<std::size_t>(Phase::kFinalize) + 1);

// The histogram ids, all registered on first use so every run's catalog
// carries the whole set.
std::uint32_t phase_histogram_id(std::size_t phase) {
  static const std::array<std::uint32_t, kNumPhases> ids = [] {
    std::array<std::uint32_t, kNumPhases> table{};
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      table[i] = Registry::histogram(std::string("phase.") + kPhaseNames[i] + "_ns").id();
    }
    return table;
  }();
  return ids[phase];
}

// Inline-encode nanoseconds this thread recorded so far: a commit span
// subtracts the growth over its lifetime.
thread_local std::uint64_t t_inline_encode_ns = 0;

}  // namespace

const char* phase_name(Phase phase) { return kPhaseNames[static_cast<std::size_t>(phase)]; }

std::uint64_t phase_nanos(const Context& context, Phase phase) {
  const HistogramCell* cell =
      context.find_histogram_cell(phase_histogram_id(static_cast<std::size_t>(phase)));
  return cell == nullptr ? 0 : cell->sum();
}

void ScopedSpan::open(std::initializer_list<Arg> args) {
  begin_ns_ = now_ns();
  if (phase_ == Phase::kCommit) carved_before_ns_ = t_inline_encode_ns;
  if (tracing_) epoch_ = trace_detail::begin_span(*ctx_, name_, begin_ns_, args);
}

void ScopedSpan::close() {
  const std::uint64_t end_ns = now_ns();
  if (timing_) {
    std::uint64_t ns = end_ns - begin_ns_;
    if (phase_ == Phase::kEncodeInline) t_inline_encode_ns += ns;
    if (phase_ == Phase::kCommit) ns -= t_inline_encode_ns - carved_before_ns_;
    ctx_->histogram_cell(phase_histogram_id(static_cast<std::size_t>(phase_))).record(ns);
  }
  if (tracing_) {
    trace_detail::end_span(*ctx_, name_, epoch_, end_ns, end_args_, num_end_args_);
  }
}

void start_trace(const std::string& path) { Context::current().start_trace(path); }

bool stop_trace() { return Context::current().stop_trace(); }

void set_thread_name(const std::string& name) {
  ThreadNames& registry = thread_names();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.by_tid[thread_id()] = name;
}

}  // namespace specdag::obs
