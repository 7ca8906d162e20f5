// Golden structured-trace test: runs IQ over one small deterministic
// scenario (a scaled-down version of the paper's §5.1 default setup) and
// compares the serialized JSONL trace byte-for-byte against the committed
// golden file tests/golden/trace_iq_small.jsonl. A second golden,
// tests/golden/trace_faulted_small.jsonl, freezes the full fault stack
// (Gilbert-Elliott loss, ARQ, churn with tree repair) over IQ and HBC, so
// every drop/retx/ack/crash/recover/repair event and its node id is pinned
// to the byte as well.
//
// This pins the whole observable trace contract at once: which events the
// protocol and network layers emit, their (run, round, phase, node) keys,
// their args, the logical tick sequence, and the serialization format.
// Any intentional change regenerates the goldens with:
//
//   WSNQ_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
//
// which rewrites the files in the source tree (WSNQ_TEST_SRCDIR) and skips.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/trace.h"

namespace wsnq {
namespace {


// Scaled-down §5.1 defaults: same phi / radio-range-to-density flavor,
// fewer nodes and rounds so the golden file stays reviewable.
SimulationConfig GoldenConfig() {
  SimulationConfig config;
  config.num_sensors = 32;
  config.radio_range = 90.0;
  config.phi = 0.5;
  config.rounds = 5;
  config.seed = 1;
  config.threads = 1;
  return config;
}

// TraceDeterminismTest's faulted configuration: bursty loss, ARQ, and a
// churn window with tree repair, all at once.
SimulationConfig FaultedConfig() {
  SimulationConfig config;
  config.num_sensors = 32;
  config.radio_range = 90.0;
  config.rounds = 10;
  config.seed = 7;
  config.threads = 1;
  config.fault.loss = 0.15;
  config.fault.loss_model = LossModel::kGilbertElliott;
  config.fault.burst_len = 3.0;
  config.fault.arq.enabled = true;
  config.fault.crash_nodes = 2;
  config.fault.crash_round = 3;
  config.fault.crash_len = 4;
  return config;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path);
  }
  std::string body;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, n);
  }
  std::fclose(f);
  return body;
}

// Runs `algorithms` over `runs` runs of `config` and returns the
// serialized JSONL trace.
std::string CaptureTrace(const SimulationConfig& config,
                         const std::vector<AlgorithmKind>& algorithms,
                         int runs) {
  trace::InstallGlobalSink("unused.jsonl");
  auto aggregates = RunExperiment(config, algorithms, runs);
  EXPECT_TRUE(aggregates.ok()) << aggregates.status().ToString();
  EXPECT_NE(trace::GlobalSink(), nullptr);
  if (trace::GlobalSink() == nullptr) return "";
  // RunExperiment has returned, so every run buffer is folded and this
  // thread may (re-)enter the fold phase to serialize.
  ScopedSerialPhase fold_phase(FoldPhase());
  std::string serialized = trace::GlobalSink()->SerializeJsonl();
  trace::ClearGlobalSink();
  return serialized;
}

// Compares `actual` byte for byte against the golden file at `rel_path`
// (under the test source directory), or rewrites it and skips when
// WSNQ_UPDATE_GOLDEN is set.
void ExpectMatchesGoldenFile(const std::string& actual,
                             const std::string& rel_path) {
  ASSERT_FALSE(actual.empty());
  const std::string path = std::string(WSNQ_TEST_SRCDIR) + rel_path;
  if (GetEnv("WSNQ_UPDATE_GOLDEN").has_value()) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    ASSERT_EQ(std::fwrite(actual.data(), 1, actual.size(), f),
              actual.size());
    ASSERT_EQ(std::fclose(f), 0);
    GTEST_SKIP() << "rewrote " << path;
  }

  auto golden = ReadFile(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString()
                           << " — regenerate with WSNQ_UPDATE_GOLDEN=1";
  if (actual != golden.value()) {
    // Byte diff on thousands of lines is unreadable in gtest output; point
    // at the first differing line instead.
    size_t line = 1, pos = 0;
    const std::string& expected = golden.value();
    const size_t limit = std::min(actual.size(), expected.size());
    while (pos < limit && actual[pos] == expected[pos]) {
      if (actual[pos] == '\n') ++line;
      ++pos;
    }
    FAIL() << "trace diverges from " << path << " at line " << line
           << " (byte " << pos << " of " << actual.size() << " vs "
           << expected.size() << "); regenerate with WSNQ_UPDATE_GOLDEN=1 "
              "if the change is intentional";
  }
}

TEST(GoldenTraceTest, IqSmallScenarioMatchesFrozenTrace) {
  ExpectMatchesGoldenFile(
      CaptureTrace(GoldenConfig(), {AlgorithmKind::kIq}, /*runs=*/1),
      "/golden/trace_iq_small.jsonl");
}

TEST(GoldenTraceTest, FaultedScenarioMatchesFrozenTrace) {
  const std::string actual = CaptureTrace(
      FaultedConfig(), {AlgorithmKind::kIq, AlgorithmKind::kHbc}, /*runs=*/1);
  // The fault machinery must actually be visible in what is frozen.
  for (const char* name :
       {"\"drop\"", "\"retx\"", "\"ack\"", "\"crash\"", "\"recover\"",
        "\"repair\""}) {
    EXPECT_NE(actual.find(name), std::string::npos) << name;
  }
  ExpectMatchesGoldenFile(actual, "/golden/trace_faulted_small.jsonl");
}

TEST(GoldenTraceTest, SubtreeParallelNeverChangesTrace) {
  // The in-run subtree engine (net/wave.h) accounts each part in parallel
  // but emits every network event from the serial fold, in post order
  // (pre order for floods), so every trace byte must match the classic
  // loops exactly, for any thread count and partition choice.
  const std::string serial =
      CaptureTrace(GoldenConfig(), {AlgorithmKind::kIq}, /*runs=*/2);
  ASSERT_FALSE(serial.empty());
  for (int threads : {1, 2, 8}) {
    SimulationConfig config = GoldenConfig();
    config.subtree_parallel = true;
    config.threads = threads;
    EXPECT_EQ(serial, CaptureTrace(config, {AlgorithmKind::kIq}, /*runs=*/2))
        << "subtree-parallel trace diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace wsnq
