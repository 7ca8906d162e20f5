// wsnq-trace: deterministic structured event tracing plus wall-clock
// profiling hooks (docs/observability.md).
//
// Two strictly separated layers live here:
//
//  * trace:: — logical-time protocol events keyed by (run, round, phase,
//    node). Events carry NO wall-clock time: every timestamp is a logical
//    tick assigned per run buffer and rebased when buffers are folded in
//    run-index order, so serialized traces are bit-identical for every
//    --threads value (the same ordered-fold discipline as the experiment
//    aggregates; pinned by tests/trace_determinism_test.cc). Emission
//    macros are compiled into every build; with no buffer installed each
//    site costs one thread-local load and one branch.
//
//  * prof:: — wall-clock RAII stage timers and the thread pool's per-worker
//    spans. Non-deterministic by nature, so output goes to stderr or an
//    explicitly requested profile JSON, never into deterministic stdout or
//    trace files. This file's .cc is one of the two sanctioned
//    steady_clock::now() sites (wsnq-lint rule `raw-clock`).

#ifndef WSNQ_UTIL_TRACE_H_
#define WSNQ_UTIL_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace wsnq {
namespace trace {

/// One named integer payload of an event ("xi_l" = -3, "bits" = 128, ...).
struct Arg {
  const char* key;
  int64_t value;
};

/// A single logical-time trace event. All strings are static-storage
/// literals supplied at the emission site; events never own memory.
struct Event {
  enum class Kind : uint8_t { kBegin, kEnd, kInstant, kCounter };
  static constexpr int kMaxArgs = 4;

  Kind kind = Kind::kInstant;
  /// Protocol phase ("validation", "refinement", "init", "net", "round").
  const char* phase = "";
  const char* name = "";
  /// Label of the protocol that emitted the event ("IQ", "POS", ...).
  const char* proto = "";
  int run = 0;
  int64_t round = 0;
  /// Emitting vertex; -1 = coordinator/root-level event.
  int node = -1;
  /// Logical timestamp: per-buffer sequence number, rebased to a global
  /// tick when the buffer is folded into a TraceSink.
  int64_t tick = 0;
  int num_args = 0;
  Arg args[kMaxArgs] = {};
};

/// Collects the events of ONE experiment run. Each run task owns its buffer
/// exclusively (no locking); buffers are folded into the sink on the
/// calling thread in run-index order. Exclusive ownership is why the class
/// carries no capability annotations: it is never shared, the RunScope
/// thread_local install is the whole access path, and the cross-thread
/// hand-off to the folding thread happens-before via ParallelFor's return
/// (the fold side is guarded — see TraceSink and FoldPhase()).
class TraceBuffer {
 public:
  explicit TraceBuffer(int run) : run_(run) {}

  int run() const { return run_; }
  /// Context stamped onto subsequently emitted events.
  void set_round(int64_t round) { round_ = round; }
  void set_proto(const char* proto) { proto_ = proto; }

  void Begin(const char* phase, const char* name, int node,
             std::initializer_list<Arg> args = {});
  void End(const char* phase, const char* name, int node);
  void Instant(const char* phase, const char* name, int node,
               std::initializer_list<Arg> args = {});
  void Counter(const char* name, int64_t value);

  const std::vector<Event>& events() const { return events_; }
  /// Logical ticks consumed so far (== events emitted).
  int64_t ticks() const { return tick_; }
  bool empty() const { return events_.empty(); }

 private:
  void Push(Event::Kind kind, const char* phase, const char* name, int node,
            std::initializer_list<Arg> args);

  int run_;
  int64_t round_ = 0;
  const char* proto_ = "";
  int64_t tick_ = 0;
  std::vector<Event> events_;
};

/// Backs Current(); only RunScope writes it. Defined in the header so every
/// emission site reads it inline instead of calling into trace.cc.
inline constinit thread_local TraceBuffer* t_current = nullptr;

/// The thread's active buffer (set by RunScope); nullptr when tracing is
/// inactive. Emission macros check this once per event.
inline TraceBuffer* Current() { return t_current; }

/// Installs `buffer` as the calling thread's active trace buffer for the
/// scope's lifetime. Pass nullptr to run untraced (the macros no-op).
class RunScope {
 public:
  explicit RunScope(TraceBuffer* buffer);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  TraceBuffer* prev_;
};

/// RAII Begin/End span bound to the buffer that was current at
/// construction.
class ScopedSpan {
 public:
  ScopedSpan(const char* phase, const char* name, int node,
             std::initializer_list<Arg> args = {})
      : buffer_(Current()), phase_(phase), name_(name), node_(node) {
    if (buffer_ != nullptr) buffer_->Begin(phase_, name_, node_, args);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(phase_, name_, node_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* phase_;
  const char* name_;
  int node_;
};

/// Accumulates folded run buffers and serializes them. Fold() must be
/// called in run-index order on a single thread; it rebases each buffer's
/// logical ticks onto one global clock, which is what makes the serialized
/// bytes independent of the thread count. That discipline is expressed as
/// the FoldPhase() capability (util/mutex.h): folding requires it
/// exclusively, serialization at least shared, so a Fold() call from
/// pool-task code — where the phase capability is provably absent — is a
/// -Wthread-safety compile error under the `analyze` preset.
class TraceSink {
 public:
  explicit TraceSink(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }
  int64_t event_count() const WSNQ_REQUIRES_SHARED(FoldPhase()) {
    return static_cast<int64_t>(events_.size());
  }

  /// Appends `buffer`'s events with rebased ticks. Call in run order.
  void Fold(const TraceBuffer& buffer) WSNQ_REQUIRES(FoldPhase());

  /// One JSON object per line; full (run, round, phase, node) key.
  std::string SerializeJsonl() const WSNQ_REQUIRES_SHARED(FoldPhase());
  /// Chrome/Perfetto trace_event JSON: pid = run, tid = node + 1 (0 is the
  /// coordinator), ts/dur in logical ticks.
  std::string SerializeChromeJson() const WSNQ_REQUIRES_SHARED(FoldPhase());

  /// Writes to path(): ".jsonl" selects JSONL, anything else Chrome JSON.
  Status WriteFile() const WSNQ_REQUIRES_SHARED(FoldPhase());

 private:
  std::string path_;
  int64_t next_tick_ WSNQ_GUARDED_BY(FoldPhase()) = 0;
  std::vector<Event> events_ WSNQ_GUARDED_BY(FoldPhase());
};

/// Process-wide sink configured by --trace=PATH; nullptr when tracing was
/// not requested. Experiment code folds run buffers into it.
TraceSink* GlobalSink();
/// Installs a fresh global sink writing to `path` (replaces any previous).
void InstallGlobalSink(const std::string& path);
/// Serializes + writes the global sink's file, then uninstalls it. OK and
/// a no-op when no sink is installed.
Status FlushGlobalSink();
/// Drops the global sink without writing (tests).
void ClearGlobalSink();

}  // namespace trace

namespace prof {

/// Profiling is off by default; the --profile flag calls Enable(). All
/// costs below are gated on this.
bool Enabled();
void Enable();

/// Monotonic wall clock [seconds]. The implementation (trace.cc) and the
/// thread pool are the only places allowed to touch a raw clock
/// (wsnq-lint rule `raw-clock`); everything else times through this.
double WallSeconds();

/// Adds one completed span to the process-wide profile (thread-safe).
void AddSample(const char* stage, double seconds);

/// One stage's accumulated profile, as returned by Snapshot().
struct StageReport {
  std::string stage;
  int64_t count = 0;
  double total_s = 0.0;
  /// Fastest / slowest single span — distinguishes steady stages from
  /// bimodal ones that a bare total would average away.
  double min_s = 0.0;
  double max_s = 0.0;
};

/// Copies the accumulated profile, sorted by stage name (thread-safe).
std::vector<StageReport> Snapshot();

/// Drops every accumulated sample (tests only; profiling stays enabled).
void ResetForTest();

/// RAII wall-clock span over a named stage ("experiment/run", ...).
/// No-op when profiling is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* stage);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* stage_;
  double start_;
};

/// The process's peak resident set size in MB (`VmHWM` of
/// /proc/self/status, kB / 1024 — the benchmark's `peak_rss_mb`), or a
/// negative value when it cannot be read (no procfs).
double PeakRssMb();

/// Writes "# profile stage=... count=... total_s=... min_s=... max_s=..."
/// lines to stderr (stderr keeps deterministic stdout byte-identical),
/// then "# profile peak_rss_mb=..." when PeakRssMb() is readable.
/// No-op when nothing was sampled.
void ReportToStderr();

/// Writes the accumulated profile as JSON
/// ({"peak_rss_mb": ..., "stages": [...]}); "peak_rss_mb" is omitted when
/// PeakRssMb() cannot be read.
Status WriteJson(const std::string& path);

}  // namespace prof
}  // namespace wsnq

// --- Emission macros ------------------------------------------------------
//
// Always compiled in. Each site checks trace::Current() inline, so with no
// buffer installed it costs one thread-local load and one branch (a
// WSNQ_TRACE_SCOPE also builds its span's fields). Args are brace-initialized
// {key, value} pairs:
//
//   WSNQ_TRACE_EVENT("validation", "window", /*node=*/-1,
//                    {"xi_l", xi_l_}, {"xi_r", xi_r_});
//   WSNQ_TRACE_SCOPE("refinement", "drill", -1);

#define WSNQ_TRACE_CONCAT_INNER_(a, b) a##b
#define WSNQ_TRACE_CONCAT_(a, b) WSNQ_TRACE_CONCAT_INNER_(a, b)

#define WSNQ_TRACE_EVENT(phase, name, node, ...)                        \
  do {                                                                  \
    if (::wsnq::trace::TraceBuffer* wsnq_tb_ = ::wsnq::trace::Current()) \
      wsnq_tb_->Instant((phase), (name), (node), {__VA_ARGS__});        \
  } while (0)

#define WSNQ_TRACE_COUNTER(name, value)                                 \
  do {                                                                  \
    if (::wsnq::trace::TraceBuffer* wsnq_tb_ = ::wsnq::trace::Current()) \
      wsnq_tb_->Counter((name), (value));                               \
  } while (0)

#define WSNQ_TRACE_SCOPE(phase, name, node, ...)                  \
  ::wsnq::trace::ScopedSpan WSNQ_TRACE_CONCAT_(wsnq_trace_span_,  \
                                               __LINE__)(         \
      (phase), (name), (node), {__VA_ARGS__})

#define WSNQ_TRACE_SET_ROUND(round)                                     \
  do {                                                                  \
    if (::wsnq::trace::TraceBuffer* wsnq_tb_ = ::wsnq::trace::Current()) \
      wsnq_tb_->set_round(round);                                       \
  } while (0)

#define WSNQ_TRACE_SET_PROTO(proto)                                     \
  do {                                                                  \
    if (::wsnq::trace::TraceBuffer* wsnq_tb_ = ::wsnq::trace::Current()) \
      wsnq_tb_->set_proto(proto);                                       \
  } while (0)

#endif  // WSNQ_UTIL_TRACE_H_
