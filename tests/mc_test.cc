// Unit tests for the bounded-exhaustive model checker (src/mc/): schedule
// arithmetic and the JSON repro format, crash-spec enumeration, closed-form
// explored counts at tiny bounds, pruning equivalence, thread-count
// determinism, and delta-debugging minimization convergence on a genuine
// seeded failure (ARQ armed with a zero retransmission budget).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mc/enumerate.h"
#include "mc/mc.h"
#include "mc/minimize.h"
#include "mc/model_check.h"
#include "mc/runner.h"
#include "mc/schedule.h"
#include "util/status.h"

namespace wsnq {
namespace {

McOptions TinyOptions() {
  McOptions options;
  options.nodes = 6;
  options.rounds = 3;
  options.max_drops = 1;
  options.max_crashes = 0;
  options.threads = 1;
  options.algorithms = {AlgorithmKind::kTag};
  return options;
}

TEST(SaturatingBinomialTest, SmallValuesAreExact) {
  EXPECT_EQ(SaturatingBinomial(0, 0), 1);
  EXPECT_EQ(SaturatingBinomial(5, 0), 1);
  EXPECT_EQ(SaturatingBinomial(5, 1), 5);
  EXPECT_EQ(SaturatingBinomial(5, 2), 10);
  EXPECT_EQ(SaturatingBinomial(5, 5), 1);
  EXPECT_EQ(SaturatingBinomial(5, 6), 0);
  EXPECT_EQ(SaturatingBinomial(62, 3), 37820);
}

TEST(SaturatingBinomialTest, HugeValuesSaturate) {
  EXPECT_EQ(SaturatingBinomial(1000, 30),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(SaturatingAdd(std::numeric_limits<int64_t>::max(), 1),
            std::numeric_limits<int64_t>::max());
}

TEST(NaiveScheduleCountTest, MatchesBinomialSums) {
  EXPECT_EQ(NaiveScheduleCount(16, 0), 1);
  EXPECT_EQ(NaiveScheduleCount(16, 1), 17);
  EXPECT_EQ(NaiveScheduleCount(4, 2), 1 + 4 + 6);
  EXPECT_EQ(NaiveScheduleCount(0, 3), 1);
}

TEST(ScheduleToStringTest, FormatsDropsAndCrash) {
  FaultSchedule schedule;
  EXPECT_EQ(ScheduleToString(schedule), "drops=[] crash=none");
  schedule.drops = {3, 17};
  schedule.crash.victim = 4;
  schedule.crash.crash_round = 2;
  schedule.crash.crash_len = 1;
  EXPECT_EQ(ScheduleToString(schedule), "drops=[3,17] crash=v4@2+1");
}

TEST(ReproJsonTest, RoundTripsEveryField) {
  McRepro repro;
  repro.invariant = "arq-exactness";
  repro.algo = AlgorithmKind::kHbc;
  repro.options = TinyOptions();
  repro.options.max_crashes = 1;
  repro.options.seed = 7;
  repro.schedule.drops = {2, 9, 31};
  repro.schedule.crash.victim = 3;
  repro.schedule.crash.crash_round = 1;
  repro.schedule.crash.crash_len = 2;
  repro.detail = "answer 12 != oracle 14 \"quoted\"";

  StatusOr<McRepro> parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const McRepro& got = parsed.value();
  EXPECT_EQ(got.invariant, repro.invariant);
  EXPECT_EQ(got.algo, repro.algo);
  EXPECT_EQ(got.options.nodes, repro.options.nodes);
  EXPECT_EQ(got.options.rounds, repro.options.rounds);
  EXPECT_EQ(got.options.seed, repro.options.seed);
  EXPECT_EQ(got.options.arq, repro.options.arq);
  EXPECT_EQ(got.options.max_retx, repro.options.max_retx);
  EXPECT_DOUBLE_EQ(got.options.radio_range, repro.options.radio_range);
  EXPECT_DOUBLE_EQ(got.options.phi, repro.options.phi);
  EXPECT_EQ(got.schedule.drops, repro.schedule.drops);
  EXPECT_EQ(got.schedule.crash.victim, repro.schedule.crash.victim);
  EXPECT_EQ(got.schedule.crash.crash_round, repro.schedule.crash.crash_round);
  EXPECT_EQ(got.schedule.crash.crash_len, repro.schedule.crash.crash_len);
  EXPECT_EQ(got.detail, repro.detail);
}

/// Options at the largest value ValidateMcOptions accepts in every field.
McOptions LargestAcceptedOptions() {
  McOptions options;
  options.nodes = kMcMaxNodes;
  options.rounds = kMcMaxRounds;
  options.seed = kMcMaxSeed;
  options.radio_range = std::numeric_limits<double>::max();
  options.phi = 1.0;
  options.period_rounds = std::numeric_limits<double>::max();
  options.noise_percent = 100.0;
  options.max_retx = kMcMaxRetx;
  options.crash_lens = {kMcMaxRounds};
  return options;
}

TEST(ReproJsonTest, RoundTripsTheLargestAcceptedOptions) {
  McRepro repro;
  repro.options = LargestAcceptedOptions();
  ASSERT_TRUE(ValidateMcOptions(repro.options).ok());
  repro.schedule.drops = {0, 9007199254740992};
  repro.schedule.crash.victim = kMcMaxNodes - 1;
  repro.schedule.crash.crash_round = kMcMaxRounds - 1;
  repro.schedule.crash.crash_len = kMcMaxRounds;

  StatusOr<McRepro> parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const McOptions& got = parsed.value().options;
  EXPECT_EQ(got.nodes, repro.options.nodes);
  EXPECT_EQ(got.rounds, repro.options.rounds);
  EXPECT_EQ(got.seed, repro.options.seed);
  EXPECT_EQ(got.radio_range, repro.options.radio_range);
  EXPECT_EQ(got.phi, repro.options.phi);
  EXPECT_EQ(got.period_rounds, repro.options.period_rounds);
  EXPECT_EQ(got.noise_percent, repro.options.noise_percent);
  EXPECT_EQ(got.max_retx, repro.options.max_retx);
  EXPECT_EQ(parsed.value().schedule.drops, repro.schedule.drops);
  EXPECT_EQ(parsed.value().schedule.crash.victim, repro.schedule.crash.victim);
  EXPECT_EQ(parsed.value().schedule.crash.crash_round,
            repro.schedule.crash.crash_round);
  EXPECT_EQ(parsed.value().schedule.crash.crash_len,
            repro.schedule.crash.crash_len);
}

TEST(ReproJsonTest, OptionsOnePastABoundAreRejectedEverywhere) {
  // Each edit steps one field just past its bound. ValidateMcOptions (the
  // wsnq_mc flag check) and ReproFromJson must both refuse it.
  const std::vector<void (*)(McOptions*)> past_a_bound = {
      [](McOptions* o) { o->nodes = kMcMaxNodes + 1; },
      [](McOptions* o) { o->nodes = 1; },
      [](McOptions* o) { o->rounds = kMcMaxRounds + 1; },
      [](McOptions* o) { o->rounds = 0; },
      [](McOptions* o) { o->seed = kMcMaxSeed + 2; },
      [](McOptions* o) { o->radio_range = 0.0; },
      [](McOptions* o) { o->phi = 1.5; },
      [](McOptions* o) { o->period_rounds = -1.0; },
      [](McOptions* o) { o->noise_percent = 150.0; },
      [](McOptions* o) { o->max_retx = kMcMaxRetx + 1; },
      [](McOptions* o) { o->max_retx = -1; },
  };
  for (size_t i = 0; i < past_a_bound.size(); ++i) {
    McRepro repro;
    repro.options = TinyOptions();
    past_a_bound[i](&repro.options);
    const Status check = ValidateMcOptions(repro.options);
    EXPECT_EQ(check.code(), StatusCode::kInvalidArgument) << "edit " << i;
    const StatusOr<McRepro> parsed = ReproFromJson(ReproToJson(repro));
    ASSERT_FALSE(parsed.ok()) << "edit " << i;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "edit " << i;
  }
  // A real too large for a double parses as infinity.
  EXPECT_FALSE(ReproFromJson("{\"radio\": 1e999}").ok());
  EXPECT_FALSE(ReproFromJson("{\"noise\": 1e999}").ok());
  McOptions options = TinyOptions();
  options.crash_lens = {1, kMcMaxRounds + 1};
  EXPECT_FALSE(ValidateMcOptions(options).ok());
  options = TinyOptions();
  options.max_crashes = 2;
  EXPECT_FALSE(ValidateMcOptions(options).ok());
}

TEST(ReproJsonTest, RejectsUnknownKeysAndMalformedInput) {
  EXPECT_FALSE(ReproFromJson("{\"bogus_key\": 1}").ok());
  EXPECT_FALSE(ReproFromJson("not json at all").ok());
  EXPECT_FALSE(ReproFromJson("{\"nodes\": }").ok());
  EXPECT_FALSE(ReproFromJson("{\"algo\": \"NOT_AN_ALGO\"}").ok());
}

/// A repro the parser must refuse with InvalidArgument. Should it be
/// accepted, the replay runs: that is what used to abort the process.
void ExpectReproRejected(const std::string& json) {
  StatusOr<McRepro> repro = ReproFromJson(json);
  if (repro.ok()) {
    (void)ReplayRepro(repro.value());
    FAIL() << "accepted " << json;
  }
  EXPECT_EQ(repro.status().code(), StatusCode::kInvalidArgument)
      << repro.status().ToString();
}

TEST(ReproJsonTest, RejectsNegativeNodes) {
  ExpectReproRejected("{\"nodes\": -3}");
}

TEST(ReproJsonTest, RejectsNodesBeyondIntRange) {
  ExpectReproRejected("{\"nodes\": 1e30}");
}

TEST(ReproJsonTest, RejectsNegativeRounds) {
  ExpectReproRejected("{\"rounds\": -5}");
}

TEST(ReproJsonTest, RejectsCrashVictimOutsideTheDeployment) {
  ExpectReproRejected(
      "{\"nodes\": 8, \"crash_victim\": 99, \"crash_round\": 1, "
      "\"crash_len\": 1}");
}

TEST(ReproJsonTest, RejectsNonPositiveRadio) {
  ExpectReproRejected("{\"radio\": -1}");
}

TEST(ReproJsonTest, ReplayRejectsTheRootAsCrashVictim) {
  McOptions options = TinyOptions();
  StatusOr<McContext> context = BuildMcContext(options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  const Network& net = *context.value().scenario.network;
  McRepro repro;
  repro.options = options;
  repro.schedule.crash.victim = net.label(net.root());
  repro.schedule.crash.crash_round = 1;
  repro.schedule.crash.crash_len = 1;
  StatusOr<McRepro> parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const StatusOr<ScheduleResult> replay = ReplayRepro(parsed.value());
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnumerateCrashSpecsTest, CountsVictimsRoundsAndLens) {
  McOptions options = TinyOptions();
  EXPECT_TRUE(EnumerateCrashSpecs(options, 6, 0).empty());  // C = 0

  options.max_crashes = 1;
  options.crash_lens = {1, 2};
  // 5 non-root victims x crash_round in [1, 2] x 2 lens.
  const std::vector<McCrashSpec> specs = EnumerateCrashSpecs(options, 6, 0);
  EXPECT_EQ(specs.size(), 5u * 2u * 2u);
  for (const McCrashSpec& spec : specs) {
    EXPECT_NE(spec.victim, 0);  // never the root
    EXPECT_GE(spec.crash_round, 1);
    EXPECT_LT(spec.crash_round, options.rounds);
  }
}

// TAG with ARQ off sends exactly one uplink frame per attached sensor per
// round no matter what is dropped, so every <= D-subset of [0, frames) is
// reachable: explored must equal the closed-form naive count exactly and
// nothing is pruned.
TEST(EnumerationTest, ConstantFrameProtocolMatchesClosedForm) {
  McOptions options = TinyOptions();
  options.arq = false;
  options.max_drops = 2;

  StatusOr<EnumerationResult> result = RunEnumeration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const McStats& stats = result.value().stats;
  // 5 sensors x 3 rounds, constant across schedules.
  EXPECT_EQ(stats.max_frames, 15);
  EXPECT_EQ(stats.explored, NaiveScheduleCount(15, 2));
  EXPECT_EQ(stats.pruned, 0);
  EXPECT_EQ(stats.violations, 0);
  EXPECT_TRUE(result.value().violations.empty());
}

// A schedule whose drop ordinal exceeds every frame the run sends is
// equivalent to the empty schedule — applied_drops stays 0 and the reached
// state fingerprints are identical. These are exactly the schedules the
// enumeration prunes.
TEST(EnumerationTest, UnreachableDropIsEquivalentToEmptySchedule) {
  const McOptions options = TinyOptions();
  StatusOr<McContext> context = BuildMcContext(options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  FaultSchedule empty;
  const ScheduleResult base = RunSchedule(
      &context.value(), options, AlgorithmKind::kTag, empty);
  ASSERT_FALSE(base.violated);
  ASSERT_GT(base.frames_sent, 0);

  FaultSchedule unreachable;
  unreachable.drops = {base.frames_sent + 100};
  const ScheduleResult pruned = RunSchedule(
      &context.value(), options, AlgorithmKind::kTag, unreachable);
  EXPECT_EQ(pruned.applied_drops, 0);
  EXPECT_EQ(pruned.frames_sent, base.frames_sent);
  EXPECT_EQ(pruned.fingerprint, base.fingerprint);
}

// With ARQ on, a dropped frame is retransmitted (frames_sent grows), so the
// naive mask space over F_cap contains unreachable schedules and the pruned
// count is positive — while every explored schedule stays distinct.
TEST(EnumerationTest, ArqRetransmissionsProducePruning) {
  McOptions options = TinyOptions();
  options.max_drops = 2;

  StatusOr<EnumerationResult> result = RunEnumeration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const McStats& stats = result.value().stats;
  EXPECT_GT(stats.pruned, 0);
  EXPECT_EQ(stats.explored + stats.pruned, stats.naive_total);
  EXPECT_EQ(stats.violations, 0);
}

TEST(EnumerationTest, StatsAreIdenticalAcrossThreadCounts) {
  McOptions options = TinyOptions();
  options.max_drops = 2;
  options.max_crashes = 1;
  options.algorithms = {AlgorithmKind::kTag, AlgorithmKind::kPos};

  options.threads = 1;
  StatusOr<EnumerationResult> serial = RunEnumeration(options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  options.threads = 3;
  StatusOr<EnumerationResult> parallel = RunEnumeration(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  const McStats& a = serial.value().stats;
  const McStats& b = parallel.value().stats;
  EXPECT_EQ(a.explored, b.explored);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.naive_total, b.naive_total);
  EXPECT_EQ(a.max_frames, b.max_frames);
  EXPECT_EQ(a.distinct_states, b.distinct_states);
  EXPECT_EQ(a.duplicate_states, b.duplicate_states);
  EXPECT_EQ(a.violations, b.violations);
}

// The full smoke bounds (the mc_smoke_test ctest leg runs the same space
// through the CLI): every schedule of every exact protocol holds every
// invariant.
TEST(EnumerationTest, SmokeBoundsAreViolationFree) {
  McOptions options;
  options.nodes = 8;
  options.rounds = 4;
  options.max_drops = 2;
  options.max_crashes = 0;

  StatusOr<EnumerationResult> result = RunEnumeration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stats.violations, 0);
  EXPECT_GT(result.value().stats.explored, 1000);
}

// Arming the invariants with a zero retransmission budget under a
// two-drop space manufactures genuine violations (the delivery theorem's
// max_retx >= D precondition is broken on purpose), which exercises the
// whole find -> minimize -> serialize -> replay loop on a real failure.
TEST(MinimizeTest, ConvergesToOneMinimalScheduleOnSeededFailure) {
  McOptions options = TinyOptions();
  options.max_drops = 2;
  options.max_retx = 0;  // ARQ armed but toothless: drops go unrepaired

  StatusOr<EnumerationResult> result = RunEnumeration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().violations.empty());
  EXPECT_GT(result.value().stats.violations, 0);

  StatusOr<McContext> context = BuildMcContext(options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  // Pick a violation with two drops so the minimizer has work to do.
  const McViolation* seed = nullptr;
  for (const McViolation& violation : result.value().violations) {
    if (violation.schedule.drops.size() == 2) {
      seed = &violation;
      break;
    }
  }
  ASSERT_NE(seed, nullptr);

  const McViolation minimal =
      MinimizeViolation(&context.value(), options, *seed);
  EXPECT_EQ(minimal.invariant, seed->invariant);
  EXPECT_LE(minimal.schedule.drops.size(), seed->schedule.drops.size());
  EXPECT_GE(minimal.schedule.drops.size(), 1u);

  // The minimized schedule is a genuine repro: replaying it violates the
  // same invariant.
  const ScheduleResult replay = RunSchedule(
      &context.value(), options, minimal.algo, minimal.schedule);
  ASSERT_TRUE(replay.violated);
  EXPECT_EQ(replay.violation.invariant, minimal.invariant);

  // 1-minimality: removing any single drop loses the failure against this
  // invariant... or keeps it, in which case the minimizer should have
  // removed that drop. Assert the former.
  for (size_t i = 0; i < minimal.schedule.drops.size(); ++i) {
    FaultSchedule probe = minimal.schedule;
    probe.drops.erase(probe.drops.begin() + static_cast<int64_t>(i));
    const ScheduleResult r = RunSchedule(
        &context.value(), options, minimal.algo, probe);
    EXPECT_FALSE(r.violated && r.violation.invariant == minimal.invariant)
        << "minimizer left a removable drop at index " << i;
  }
}

// End-to-end: RunModelCheck minimizes every violation into a repro whose
// JSON round-trips and replays to the same invariant.
TEST(ModelCheckTest, SeededFailureProducesReplayableRepro) {
  McOptions options = TinyOptions();
  options.max_drops = 1;
  options.max_retx = 0;

  StatusOr<McReport> report = RunModelCheck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report.value().repros.empty());

  const McRepro& repro = report.value().repros.front();
  StatusOr<McRepro> parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  StatusOr<ScheduleResult> replay = ReplayRepro(parsed.value());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay.value().violated);
  EXPECT_EQ(replay.value().violation.invariant, repro.invariant);
}

TEST(RunnerTest, CrashScheduleBumpsEpochAndStaysValid) {
  McOptions options = TinyOptions();
  StatusOr<McContext> context = BuildMcContext(options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  FaultSchedule schedule;
  schedule.crash.victim = 2;
  schedule.crash.crash_round = 1;
  schedule.crash.crash_len = 1;  // crash at round 1, recover at round 2
  const ScheduleResult result = RunSchedule(
      &context.value(), options, AlgorithmKind::kTag, schedule);
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.detail;
}

}  // namespace
}  // namespace wsnq
