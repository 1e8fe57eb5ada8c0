// Trace-span layer: Chrome trace-event / Perfetto-compatible JSON output.
//
// When a trace session is active (`specdag run --trace out.trace.json` or a
// `"trace"` path in the scenario spec's obs block), instrumented scopes emit
// duration events (B/E pairs), async-encode hand-offs emit flow events (s/f)
// linking a put() to its background completion, and the thread pool emits
// instant events — the resulting file opens directly in ui.perfetto.dev or
// chrome://tracing.
//
// A trace session belongs to an obs::Context (see context.hpp): each run of
// a parallel sweep can trace into its own buffer and file concurrently,
// because every emitter resolves the calling thread's active context —
// which ThreadPool propagates into posted tasks. Thread *names* stay
// process-global (a thread is one track regardless of which run it works
// for); metadata events are synthesized at file-write time for every named
// thread that appears in the buffer.
//
// Tracing is off by default and costs one thread-local load plus one atomic
// load per scope when off. When on, events append to the context's buffer
// under its mutex, stamped before the lock (each thread stamps and appends
// in program order, so ts is monotonic per thread). Like the metrics half,
// tracing never touches RNG streams or scheduling, so traced runs stay
// bit-identical with untraced ones.
//
// Phase spans are the run's only clock for its phases: a span opened with
// an obs::Phase also adds its duration (the stamps of its B/E pair) to the
// histogram `phase.<name>_ns` whenever the context's metrics are on.
// sim::PhaseTimings and summary.perf are views over those sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "obs/context.hpp"

namespace specdag::obs {

// The timed phases, named like their spans (kTipselReference is
// "tipsel.reference"). A commit span records its duration net of the
// encode.inline spans nested in it on its thread.
enum class Phase : std::uint8_t {
  kSetup, kRound, kAdvance, kTipsel, kTipselReference, kTrain, kExecTrain, kEval, kCommit,
  kEncodeInline, kEncodeAsync, kFinalize,
};

const char* phase_name(Phase phase);
// Nanoseconds recorded for `phase` in `context` (its histogram's sum).
std::uint64_t phase_nanos(const Context& context, Phase phase);

namespace trace_detail {

struct TraceArg {
  const char* key;
  std::uint64_t value;
};

// All emitters no-op unless the target context has a session active. The
// span pair is pinned to the context captured at open and carries the
// span's own stamps (`ts_ns`); `epoch` guards against a span opened in one
// session closing in another (the E would be unmatched).
std::uint64_t begin_span(Context& ctx, const char* name, std::uint64_t ts_ns,
                         std::initializer_list<TraceArg> args);
void end_span(Context& ctx, const char* name, std::uint64_t epoch, std::uint64_t ts_ns,
              const TraceArg* args, std::size_t num_args);
// These resolve the calling thread's active context themselves.
void flow_start(const char* name, std::uint64_t flow_id);
void flow_finish(const char* name, std::uint64_t flow_id);
void instant(const char* name, std::initializer_list<TraceArg> args);

}  // namespace trace_detail

// True when the calling thread's active context has a trace session.
inline bool tracing_enabled() { return Context::current().tracing(); }

// Session control on the calling thread's active context — the convenience
// spelling of Context::current().start_trace()/stop_trace() used by tests
// and ad-hoc tooling; the scenario runner drives its run context directly.
void start_trace(const std::string& path);
bool stop_trace();

// Labels the calling thread in the trace viewer (a process-global tid ->
// name binding; `M` metadata events are synthesized for it in every trace
// file the thread appears in). Safe to call when tracing is off.
void set_thread_name(const std::string& name);

// RAII duration event. `name` must be a string literal (stored by pointer).
// The owning context is captured at construction, so the closing E always
// lands in the same buffer as its B (one resolve per span, not two).
//
//   obs::ScopedSpan span("prepare", {{"round", round}, {"client", id}});
//   obs::ScopedSpan commit(obs::Phase::kCommit, {{"client", id}});  // timed too
//   ...
//   span.arg("tx", published_id);  // attached to the closing E event
class ScopedSpan {
 public:
  using Arg = trace_detail::TraceArg;

  explicit ScopedSpan(const char* name, std::initializer_list<Arg> args = {})
      : ScopedSpan(name, kUntimed, args) {}
  explicit ScopedSpan(Phase phase, std::initializer_list<Arg> args = {})
      : ScopedSpan(phase_name(phase), phase, args) {}

  ~ScopedSpan() {
    if (tracing_ || timing_) close();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a key/value to the closing event (Perfetto merges B and E args
  // into one slice). Useful for results only known at scope exit.
  void arg(const char* key, std::uint64_t value) {
    if (tracing_ && num_end_args_ < kMaxEndArgs) end_args_[num_end_args_++] = Arg{key, value};
  }

 private:
  static constexpr Phase kUntimed = static_cast<Phase>(0xFF);
  static constexpr std::size_t kMaxEndArgs = 3;

  ScopedSpan(const char* name, Phase phase, std::initializer_list<Arg> args)
      : name_(name),
        ctx_(&Context::current()),
        phase_(phase),
        tracing_(ctx_->tracing()),
        timing_(phase != kUntimed && ctx_->metrics_on()) {
    if (tracing_ || timing_) open(args);
  }

  void open(std::initializer_list<Arg> args);
  void close();

  const char* name_;
  Context* ctx_;
  Phase phase_;
  bool tracing_;
  bool timing_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t carved_before_ns_ = 0;  // commit: this thread's inline-encode clock at open
  std::uint64_t epoch_ = 0;
  Arg end_args_[kMaxEndArgs];
  std::size_t num_end_args_ = 0;
};

}  // namespace specdag::obs
