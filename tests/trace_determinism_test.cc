// Pins the wsnq-trace determinism contract: the serialized trace (both
// JSONL and Chrome JSON) and the folded metrics registry produced by a
// multi-run experiment are BYTE-identical for every --threads value. This
// is the trace-layer companion of parallel_determinism_test.cc — run
// buffers are owned exclusively by their run task and folded into the sink
// on the calling thread in run-index order, so the thread schedule can
// never reorder events.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/metrics_registry.h"
#include "util/mutex.h"
#include "util/trace.h"

namespace wsnq {
namespace {

struct Capture {
  std::string jsonl;
  std::string chrome;
  int64_t event_count = 0;
  std::vector<std::vector<MetricsRegistry::Row>> metrics_rows;
};

SimulationConfig SmallConfig(int threads, bool faulted = false) {
  SimulationConfig config;
  config.num_sensors = 32;
  config.radio_range = 90.0;  // small net: keep it connected
  config.rounds = 10;
  config.seed = 7;
  config.threads = threads;
  config.collect_metrics = true;
  if (faulted) {
    // The full fault stack at once — bursty loss, ARQ, and a churn window
    // with tree repair — so drop/retx/ack/crash/repair events and the
    // fault metrics are all under the byte-identity contract too.
    config.fault.loss = 0.15;
    config.fault.loss_model = LossModel::kGilbertElliott;
    config.fault.burst_len = 3.0;
    config.fault.arq.enabled = true;
    config.fault.crash_nodes = 2;
    config.fault.crash_round = 3;
    config.fault.crash_len = 4;
  }
  return config;
}

Capture RunOnce(int threads, bool faulted = false) {
  Capture capture;
  trace::InstallGlobalSink("unused.json");
  auto aggregates =
      RunExperiment(SmallConfig(threads, faulted),
                    std::vector<AlgorithmKind>{AlgorithmKind::kIq,
                                               AlgorithmKind::kHbc},
                    /*runs=*/6);
  EXPECT_TRUE(aggregates.ok()) << aggregates.status().ToString();
  trace::TraceSink* sink = trace::GlobalSink();
  EXPECT_NE(sink, nullptr);
  if (sink != nullptr) {
    // RunExperiment has returned: folding is done, this thread may hold
    // the fold phase to serialize.
    ScopedSerialPhase fold_phase(FoldPhase());
    capture.jsonl = sink->SerializeJsonl();
    capture.chrome = sink->SerializeChromeJson();
    capture.event_count = sink->event_count();
  }
  trace::ClearGlobalSink();
  if (aggregates.ok()) {
    for (const AlgorithmAggregate& agg : aggregates.value()) {
      capture.metrics_rows.push_back(agg.metrics.Rows());
    }
  }
  return capture;
}

TEST(TraceDeterminismTest, SerializedTraceIsByteIdenticalAcrossThreads) {
  const Capture serial = RunOnce(1);
  EXPECT_GT(serial.event_count, 0);
  for (int threads : {2, 8}) {
    const Capture parallel = RunOnce(threads);
    EXPECT_EQ(serial.jsonl, parallel.jsonl) << "threads=" << threads;
    EXPECT_EQ(serial.chrome, parallel.chrome) << "threads=" << threads;
    EXPECT_EQ(serial.event_count, parallel.event_count)
        << "threads=" << threads;
  }
}

TEST(TraceDeterminismTest, FaultedTraceIsByteIdenticalAcrossThreads) {
  const Capture serial = RunOnce(1, /*faulted=*/true);
  for (int threads : {2, 8}) {
    const Capture parallel = RunOnce(threads, /*faulted=*/true);
    EXPECT_EQ(serial.jsonl, parallel.jsonl) << "threads=" << threads;
    EXPECT_EQ(serial.chrome, parallel.chrome) << "threads=" << threads;
    ASSERT_EQ(parallel.metrics_rows.size(), serial.metrics_rows.size());
    for (size_t a = 0; a < serial.metrics_rows.size(); ++a) {
      const auto& lhs = serial.metrics_rows[a];
      const auto& rhs = parallel.metrics_rows[a];
      ASSERT_EQ(lhs.size(), rhs.size()) << "threads=" << threads;
      for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].metric, rhs[i].metric) << "threads=" << threads;
        EXPECT_EQ(lhs[i].value, rhs[i].value)
            << "threads=" << threads << " metric=" << lhs[i].metric;
      }
    }
  }
  // The fault machinery must actually be visible in the trace.
  EXPECT_NE(serial.jsonl.find("\"retx\""), std::string::npos);
  EXPECT_NE(serial.jsonl.find("\"crash\""), std::string::npos);
  EXPECT_NE(serial.jsonl.find("\"repair\""), std::string::npos);
}

TEST(TraceDeterminismTest, FoldedMetricsAreIdenticalAcrossThreads) {
  const Capture serial = RunOnce(1);
  ASSERT_EQ(serial.metrics_rows.size(), 2u);  // IQ + HBC
  for (const auto& rows : serial.metrics_rows) {
    EXPECT_FALSE(rows.empty());
  }
  for (int threads : {2, 8}) {
    const Capture parallel = RunOnce(threads);
    ASSERT_EQ(parallel.metrics_rows.size(), serial.metrics_rows.size());
    for (size_t a = 0; a < serial.metrics_rows.size(); ++a) {
      const auto& lhs = serial.metrics_rows[a];
      const auto& rhs = parallel.metrics_rows[a];
      ASSERT_EQ(lhs.size(), rhs.size()) << "threads=" << threads;
      for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].metric, rhs[i].metric) << "threads=" << threads;
        // Bit-exact, not approximate: gauges are folded in run order.
        EXPECT_EQ(lhs[i].value, rhs[i].value)
            << "threads=" << threads << " metric=" << lhs[i].metric;
      }
    }
  }
}

}  // namespace
}  // namespace wsnq
