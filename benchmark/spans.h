// In-memory span recorder of the traced replays (benchmark/README.md,
// "Traced run"). Spans are recorded from the benchmark's own code around
// calls into the repository's public layer functions; nothing inside src/
// is instrumented. Each span keeps its name, start, end, parent span and
// run/round ids; spans stay in memory and are written as JSONL when the
// replay ends, so file I/O never lands inside a measured interval.

#ifndef WSNQ_BENCHMARK_SPANS_H_
#define WSNQ_BENCHMARK_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace wsnq {
namespace benchmark {

/// CLOCK_MONOTONIC [ns]: the clock the benchmark scripts and both
/// benchmark programs share, so timestamps compare across processes.
int64_t MonotonicNs();

/// This process's resident-set high-water mark [MB] (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so it is not inflated
/// by the high-water mark of the process that launched this one.
double PeakRssMb();

class SpanRecorder {
 public:
  struct Span {
    int name = -1;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int run = -1;
    int64_t round = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Interns `name`; returns its id (stable for the recorder's lifetime).
  int Intern(const std::string& name);

  /// Opens a span nested in the innermost open span; returns its index.
  int Begin(int name, int run = -1, int64_t round = -1);
  /// Closes span `index`, which must be the innermost open span.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span: id, name, parent, run, round, start_ns,
  /// end_ns (relative to the first span). benchmark/benchstats.py derives
  /// self times from this file.
  Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int name, int run = -1,
             int64_t round = -1)
      : recorder_(recorder), index_(recorder->Begin(name, run, round)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Estimated cost [ns] of recording one span on this host: the median of
/// several timed batches of empty spans on a scratch recorder.
double CalibrateSpanCostNs();

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_SPANS_H_
