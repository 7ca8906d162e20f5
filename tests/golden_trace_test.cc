// Golden structured-trace test: runs IQ over one small deterministic
// scenario (a scaled-down version of the paper's §5.1 default setup) and
// compares the serialized JSONL trace byte-for-byte against the committed
// golden file tests/golden/trace_iq_small.jsonl.
//
// This pins the whole observable trace contract at once: which events the
// protocol and network layers emit, their (run, round, phase, node) keys,
// their args, the logical tick sequence, and the serialization format.
// Any intentional change regenerates the golden with:
//
//   WSNQ_UPDATE_GOLDEN=1 ./build-tracing/tests/golden_trace_test
//
// which rewrites the file in the source tree (WSNQ_TEST_SRCDIR) and skips.
// The test itself skips in builds without -DWSNQ_TRACING=ON, where the
// emission macros compile away and the trace is legitimately empty.

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

const char kGoldenRelPath[] = "/golden/trace_iq_small.jsonl";

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

std::string GoldenPath() {
  return std::string(WSNQ_TEST_SRCDIR) + kGoldenRelPath;
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

TEST(GoldenTraceTest, IqSmallScenarioMatchesFrozenTrace) {
  if (!trace::CompiledIn()) {
    GTEST_SKIP() << "build has WSNQ_TRACING off; trace is empty by design";
  }
  trace::InstallGlobalSink("unused.jsonl");
  auto aggregates =
      RunExperiment(GoldenConfig(),
                    std::vector<AlgorithmKind>{AlgorithmKind::kIq},
                    /*runs=*/1);
  ASSERT_TRUE(aggregates.ok()) << aggregates.status().ToString();
  ASSERT_NE(trace::GlobalSink(), nullptr);
  // RunExperiment has returned, so every run buffer is folded and this
  // thread may (re-)enter the fold phase to serialize.
  ScopedSerialPhase fold_phase(FoldPhase());
  const std::string actual = trace::GlobalSink()->SerializeJsonl();
  trace::ClearGlobalSink();
  ASSERT_FALSE(actual.empty());

  if (GetEnv("WSNQ_UPDATE_GOLDEN").has_value()) {
    std::FILE* f = std::fopen(GoldenPath().c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << GoldenPath();
    ASSERT_EQ(std::fwrite(actual.data(), 1, actual.size(), f),
              actual.size());
    ASSERT_EQ(std::fclose(f), 0);
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }

  auto golden = ReadFile(GoldenPath());
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
    FAIL() << "trace diverges from " << GoldenPath() << " at line " << line
           << " (byte " << pos << " of " << actual.size() << " vs "
           << expected.size() << "); regenerate with WSNQ_UPDATE_GOLDEN=1 "
              "if the change is intentional";
  }
}

// Runs `config` and returns the serialized trace.
std::string CaptureTrace(const SimulationConfig& config) {
  trace::InstallGlobalSink("unused.jsonl");
  auto aggregates =
      RunExperiment(config, std::vector<AlgorithmKind>{AlgorithmKind::kIq},
                    /*runs=*/2);
  EXPECT_TRUE(aggregates.ok()) << aggregates.status().ToString();
  EXPECT_NE(trace::GlobalSink(), nullptr);
  ScopedSerialPhase fold_phase(FoldPhase());
  std::string serialized = trace::GlobalSink()->SerializeJsonl();
  trace::ClearGlobalSink();
  return serialized;
}

TEST(GoldenTraceTest, SubtreeParallelNeverChangesTrace) {
  // The in-run subtree engine (net/wave.h) records per-part sends and
  // replays them serially in post order, so every trace byte — network
  // events included — must match the classic wave loop exactly, for any
  // thread count and partition choice.
  if (!trace::CompiledIn()) {
    GTEST_SKIP() << "build has WSNQ_TRACING off; trace is empty by design";
  }
  const std::string serial = CaptureTrace(GoldenConfig());
  ASSERT_FALSE(serial.empty());
  for (int threads : {1, 2, 8}) {
    SimulationConfig config = GoldenConfig();
    config.subtree_parallel = true;
    config.threads = threads;
    EXPECT_EQ(serial, CaptureTrace(config))
        << "subtree-parallel trace diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace wsnq
