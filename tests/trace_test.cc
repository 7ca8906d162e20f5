// Unit tests of the wsnq-trace layer ("util/trace.h"): TraceBuffer event
// recording, TraceSink ordered folding and serialization, RunScope /
// ScopedSpan RAII, the profiling hooks, and the per-run metrics registry
// ("core/metrics_registry.h").

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics_registry.h"
#include "util/mutex.h"
#include "util/trace.h"

namespace wsnq {
namespace {

TEST(TraceBufferTest, RecordsEventsWithContextAndTicks) {
  trace::TraceBuffer buffer(/*run=*/3);
  buffer.set_proto("IQ");
  buffer.set_round(7);
  buffer.Begin("validation", "convergecast", -1, {{"lo", 10}, {"hi", 20}});
  buffer.Instant("validation", "hit", 4, {{"value", 15}});
  buffer.End("validation", "convergecast", -1);
  buffer.Counter("packets", 42);

  ASSERT_EQ(buffer.events().size(), 4u);
  EXPECT_EQ(buffer.ticks(), 4);
  const trace::Event& begin = buffer.events()[0];
  EXPECT_EQ(begin.kind, trace::Event::Kind::kBegin);
  EXPECT_EQ(begin.run, 3);
  EXPECT_EQ(begin.round, 7);
  EXPECT_STREQ(begin.proto, "IQ");
  EXPECT_STREQ(begin.phase, "validation");
  EXPECT_EQ(begin.node, -1);
  EXPECT_EQ(begin.tick, 0);
  ASSERT_EQ(begin.num_args, 2);
  EXPECT_STREQ(begin.args[0].key, "lo");
  EXPECT_EQ(begin.args[0].value, 10);
  const trace::Event& instant = buffer.events()[1];
  EXPECT_EQ(instant.kind, trace::Event::Kind::kInstant);
  EXPECT_EQ(instant.node, 4);
  EXPECT_EQ(instant.tick, 1);
  EXPECT_EQ(buffer.events()[3].kind, trace::Event::Kind::kCounter);
}

TEST(TraceSinkTest, FoldRebasesTicksInRunOrder) {
  trace::TraceBuffer run0(0);
  run0.Instant("net", "a", -1);
  run0.Instant("net", "b", -1);
  trace::TraceBuffer run1(1);
  run1.Instant("net", "c", -1);

  trace::TraceSink sink("unused.jsonl");
  // Tests fold on the main thread — the fold-phase claim holds trivially.
  ScopedSerialPhase fold_phase(FoldPhase());
  sink.Fold(run0);
  sink.Fold(run1);
  ASSERT_EQ(sink.event_count(), 3);
  // Rebasing makes the global tick sequence strictly increasing across
  // runs — the property that pins serialized bytes across thread counts.
  const std::string jsonl = sink.SerializeJsonl();
  EXPECT_NE(jsonl.find("\"tick\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tick\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tick\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"run\":1"), std::string::npos);
}

TEST(TraceSinkTest, SerializeJsonlHasFullKey) {
  trace::TraceBuffer buffer(2);
  buffer.set_proto("HBC");
  buffer.set_round(5);
  buffer.Instant("refinement", "drill", 9, {{"b", 12}});
  trace::TraceSink sink("unused.jsonl");
  ScopedSerialPhase fold_phase(FoldPhase());
  sink.Fold(buffer);
  const std::string jsonl = sink.SerializeJsonl();
  EXPECT_EQ(jsonl,
            "{\"run\":2,\"tick\":0,\"round\":5,\"proto\":\"HBC\","
            "\"phase\":\"refinement\",\"name\":\"drill\",\"node\":9,"
            "\"kind\":\"instant\",\"args\":{\"b\":12}}\n");
}

TEST(TraceSinkTest, SerializeChromeJsonIsWellFormed) {
  trace::TraceBuffer buffer(0);
  buffer.Begin("round", "update", -1);
  buffer.Instant("net", "uplink", 3, {{"bits", 64}});
  buffer.Counter("round_packets", 7);
  buffer.End("round", "update", -1);
  trace::TraceSink sink("unused.json");
  ScopedSerialPhase fold_phase(FoldPhase());
  sink.Fold(buffer);
  const std::string json = sink.SerializeChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // pid = run, tid = node + 1 (0 is the coordinator lane).
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":4"), std::string::npos);
}

TEST(TraceSinkTest, WriteFileSelectsFormatByExtension) {
  trace::TraceBuffer buffer(0);
  buffer.Instant("net", "x", -1);
  const std::string dir = ::testing::TempDir();
  ScopedSerialPhase fold_phase(FoldPhase());
  for (const char* name : {"t.jsonl", "t.json"}) {
    trace::TraceSink sink(dir + "/" + name);
    sink.Fold(buffer);
    ASSERT_TRUE(sink.WriteFile().ok()) << name;
    std::FILE* f = std::fopen(sink.path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char head[2] = {0, 0};
    ASSERT_EQ(std::fread(head, 1, 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(head[0], '{');  // both formats open with a JSON object
  }
}

TEST(TraceRunScopeTest, InstallsAndRestoresCurrent) {
  EXPECT_EQ(trace::Current(), nullptr);
  trace::TraceBuffer outer(0);
  {
    trace::RunScope outer_scope(&outer);
    EXPECT_EQ(trace::Current(), &outer);
    trace::TraceBuffer inner(1);
    {
      trace::RunScope inner_scope(&inner);
      EXPECT_EQ(trace::Current(), &inner);
    }
    EXPECT_EQ(trace::Current(), &outer);
  }
  EXPECT_EQ(trace::Current(), nullptr);
}

TEST(TraceRunScopeTest, ScopedSpanBindsToBufferAtConstruction) {
  trace::TraceBuffer buffer(0);
  {
    trace::RunScope scope(&buffer);
    trace::ScopedSpan span("round", "update", -1, {{"k", 1}});
    EXPECT_EQ(buffer.events().size(), 1u);
  }
  ASSERT_EQ(buffer.events().size(), 2u);
  EXPECT_EQ(buffer.events()[0].kind, trace::Event::Kind::kBegin);
  EXPECT_EQ(buffer.events()[1].kind, trace::Event::Kind::kEnd);
}

TEST(TraceMacroTest, EveryMacroEmitsIntoCurrentBuffer) {
  trace::TraceBuffer buffer(0);
  {
    trace::RunScope scope(&buffer);
    WSNQ_TRACE_SET_PROTO("TAG");
    WSNQ_TRACE_SET_ROUND(2);
    WSNQ_TRACE_EVENT("validation", "probe", -1, {"mid", 50});
    WSNQ_TRACE_SCOPE("validation", "span", -1);
    WSNQ_TRACE_COUNTER("packets", 3);
  }
  // instant + begin + counter + end (scope closes last).
  ASSERT_EQ(buffer.events().size(), 4u);
  EXPECT_EQ(buffer.events()[0].round, 2);
  EXPECT_STREQ(buffer.events()[0].proto, "TAG");
}

TEST(TraceGlobalSinkTest, InstallFlushAndClear) {
  const std::string path = ::testing::TempDir() + "/global_sink.jsonl";
  trace::InstallGlobalSink(path);
  ASSERT_NE(trace::GlobalSink(), nullptr);
  trace::TraceBuffer buffer(0);
  buffer.Instant("net", "x", -1);
  {
    // Scoped so FlushGlobalSink can re-enter the fold phase on its own.
    ScopedSerialPhase fold_phase(FoldPhase());
    trace::GlobalSink()->Fold(buffer);
  }
  ASSERT_TRUE(trace::FlushGlobalSink().ok());
  EXPECT_EQ(trace::GlobalSink(), nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  // Flushing with no sink installed is an OK no-op.
  EXPECT_TRUE(trace::FlushGlobalSink().ok());
  trace::InstallGlobalSink(path);
  trace::ClearGlobalSink();
  EXPECT_EQ(trace::GlobalSink(), nullptr);
}

TEST(ProfTest, WallClockAndSamples) {
  const double t0 = prof::WallSeconds();
  const double t1 = prof::WallSeconds();
  EXPECT_GE(t1, t0);
  prof::Enable();
  EXPECT_TRUE(prof::Enabled());
  prof::AddSample("test/stage", 0.001);
  {
    prof::ScopedTimer timer("test/timer");
  }
  const std::string path = ::testing::TempDir() + "/profile.json";
  ASSERT_TRUE(prof::WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string json(buf, n);
  EXPECT_NE(json.find("test/stage"), std::string::npos);
  EXPECT_NE(json.find("test/timer"), std::string::npos);
}

TEST(ProfTest, ReportsPeakRss) {
  // Linux exposes VmHWM, and this process has touched well over 1 MB.
  const double peak_rss_mb = prof::PeakRssMb();
  ASSERT_GT(peak_rss_mb, 1.0);
  ASSERT_LT(peak_rss_mb, 1e6);
  prof::Enable();
  prof::AddSample("test/rss", 0.001);

  const std::string path = ::testing::TempDir() + "/profile_rss.json";
  ASSERT_TRUE(prof::WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string json(buf, n);
  const size_t at = json.find("\"peak_rss_mb\":");
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GE(std::stod(json.substr(at + 14)), 1.0);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);

  ::testing::internal::CaptureStderr();
  prof::ReportToStderr();
  const std::string report = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(report.find("# profile stage=test/rss "), std::string::npos);
  EXPECT_NE(report.find("# profile peak_rss_mb="), std::string::npos)
      << report;
}

TEST(ProfSnapshotTest, TracksPerStageMinAndMax) {
  prof::ResetForTest();
  prof::AddSample("test/minmax", 0.25);
  prof::AddSample("test/minmax", 0.5);
  prof::AddSample("test/minmax", 0.125);
  const std::vector<prof::StageReport> reports = prof::Snapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].stage, "test/minmax");
  EXPECT_EQ(reports[0].count, 3);
  EXPECT_DOUBLE_EQ(reports[0].total_s, 0.875);
  EXPECT_DOUBLE_EQ(reports[0].min_s, 0.125);
  EXPECT_DOUBLE_EQ(reports[0].max_s, 0.5);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.Inc("uplink_packets", 3);
  registry.Inc("uplink_packets");
  registry.Add("depth_energy_mj[2]", 0.5);
  registry.Add("depth_energy_mj[2]", 0.25);
  registry.Observe("payload_bits", 0);    // bucket pow2_0
  registry.Observe("payload_bits", 1);    // bucket pow2_1: [1, 2)
  registry.Observe("payload_bits", 100);  // bucket pow2_7: [64, 128)
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(registry.counter("uplink_packets"), 4);
  EXPECT_EQ(registry.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(registry.gauge("depth_energy_mj[2]"), 0.75);
  EXPECT_EQ(registry.histogram_count("payload_bits"), 3);
}

TEST(MetricsRegistryTest, MergeAddsEntrywise) {
  MetricsRegistry a, b;
  a.Inc("rounds", 10);
  a.Add("energy", 1.0);
  a.Observe("bits", 5);
  b.Inc("rounds", 5);
  b.Inc("floods", 2);
  b.Add("energy", 0.5);
  b.Observe("bits", 5);
  ScopedSerialPhase fold_phase(FoldPhase());
  a.Merge(b);
  EXPECT_EQ(a.counter("rounds"), 15);
  EXPECT_EQ(a.counter("floods"), 2);
  EXPECT_DOUBLE_EQ(a.gauge("energy"), 1.5);
  EXPECT_EQ(a.histogram_count("bits"), 2);
}

TEST(MetricsRegistryTest, RowsAreSortedAndFlattened) {
  MetricsRegistry registry;
  registry.Inc("zz_counter", 1);
  registry.Add("aa_gauge", 2.0);
  registry.Observe("bits", 3);  // pow2_2
  const std::vector<MetricsRegistry::Row> rows = registry.Rows();
  ASSERT_EQ(rows.size(), 4u);  // counter + gauge + 1 bucket + [count]
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].metric, rows[i].metric);
  }
  EXPECT_EQ(rows[0].metric, "aa_gauge");
  EXPECT_EQ(rows[1].metric, "bits[count]");
  EXPECT_EQ(rows[2].metric, "bits[pow2_2]");
  EXPECT_EQ(rows[3].metric, "zz_counter");
}

TEST(MetricsRegistryTest, KeyedMetricFormatsSubkey) {
  EXPECT_EQ(KeyedMetric("depth_packets", 3), "depth_packets[3]");
  EXPECT_EQ(KeyedMetric("refinements_per_round", 0),
            "refinements_per_round[0]");
}

}  // namespace
}  // namespace wsnq
