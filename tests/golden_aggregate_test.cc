// Golden-aggregate regression test: freezes the per-protocol aggregates of
// the §5.1-default configuration for all six paper protocols and for every
// other registered protocol (the ablations, the adaptive switch, and the
// approximate tier), so silent numeric drift from future refactors
// (scenario seeding, energy model, protocol logic, aggregation order) fails
// tier-1 instead of only showing up when the EXPERIMENTS.md sweeps are
// rerun. Four more tables freeze the paper protocols under node churn with
// tree repair (reliable links on nearest-parent, degree-balanced and random
// trees, then loss + ARQ), and a fifth freezes one battery-drain lifetime
// run per routing-tree policy, so the routing-tree rebuilds after a crash
// or a death are pinned under every parent-selection policy.
//
// The deployment and workload parameters are the §5.1 defaults (256
// sensors in 200 m x 200 m, rho = 35 m, period 125, 5% noise, median
// query); runs x rounds are reduced to 4 x 60 to keep the suite fast —
// drift detection does not depend on the horizon.
//
// Goldens are exact: values are compared with EXPECT_EQ on doubles and
// stored as hex float literals, so every bit of drift is a failure. They
// are tied to the toolchain's libm (sin/exp/log differ across C library
// versions); if a platform change — not a code change — moves them,
// regenerate instead of chasing phantom bugs:
//
//   WSNQ_UPDATE_GOLDEN=1 ./build/tests/golden_aggregate_test
//
// prints replacement kGolden / kExtensionGolden / kChurnGolden /
// kChurnDegreeGolden / kChurnRandomGolden / kChurnArqGolden /
// kLifetimeGolden tables to paste into this file (the
// tests are skipped in that mode so regeneration never masquerades as a
// pass).

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/lifetime.h"
#include "core/scenario.h"
#include "util/env.h"

namespace wsnq {
namespace {

struct GoldenRow {
  const char* label;
  double energy_mean;
  double energy_min;
  double energy_max;
  double lifetime_mean;
  double packets_mean;
  double values_mean;
  double refinements_mean;
  double rank_error_mean;
  int64_t max_rank_error;
  int64_t errors;
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kGolden[] = {
    {"TAG",
     0x1.e772d3ad2b862p-3, 0x1.6a6008cf4c427p-3,
     0x1.409fa432b2238p-2, 0x1.07054eef867bp+7,
     0x1.0202192e29f7ap+8, 0x1.a56p+9,
     0x0p+0, 0x0p+0,
     0, 0},
    {"POS",
     0x1.b4da464e3d62p-3, 0x1.94b094b220bf8p-3,
     0x1.da83fb867943fp-3, 0x1.291a67be8274bp+7,
     0x1.4bdc53ef368ebp+8, 0x1.94e29f79b4758p+6,
     0x1.f04325c53ef36p+0, 0x0p+0,
     0, 0},
    {"HBC",
     0x1.9a80c150efcb2p-3, 0x1.7c35399320c81p-3,
     0x1.bccdd188d0fb9p-3, 0x1.3bc472b9ed4a3p+7,
     0x1.4e3ef368eb044p+8, 0x1.4fde6d1d60864p+4,
     0x1.ee29f79b47582p+0, 0x0p+0,
     0, 0},
    {"IQ",
     0x1.b73a72debf24fp-4, 0x1.84dd0e19820cdp-4,
     0x1.de541621792b4p-4, 0x1.2a55254101c84p+8,
     0x1.2f90c9714fbcep+7, 0x1.767582192e29fp+6,
     0x1.a3ac10c9714fcp-3, 0x0p+0,
     0, 0},
    {"LCLL-H",
     0x1.f173d95f9e709p-3, 0x1.9184126c0c443p-3,
     0x1.2991a53b24ae7p-2, 0x1.018e18a0747e4p+7,
     0x1.0c26d1d60864cp+8, 0x1.e53ef368eb043p+2,
     0x1.4325c53ef368fp-1, 0x0p+0,
     0, 0},
    {"LCLL-S",
     0x1.81ae775b05f8cp-3, 0x1.39d54a9e4dea5p-3,
     0x1.d03f7ea5a049cp-3, 0x1.4dcecd51e2853p+7,
     0x1.480a7de6d1d61p+7, 0x1.f79b47582192ep-1,
     0x1.14fbcda3ac10dp-3, 0x0p+0,
     0, 0},
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kExtensionGolden[] = {
    {"POS-SR",
     0x1.493c26f0b1138p-3, 0x1.2eb62abf486e4p-3,
     0x1.69fc17d494ae8p-3, 0x1.88c14d7aea988p+7,
     0x1.fb4b8a7de6d1dp+7, 0x1.5e25c53ef368fp+7,
     0x1.ef368eb04325cp-1, 0x0p+0,
     0, 0},
    {"HBC-NTB",
     0x1.7c19685588bdfp-3, 0x1.5f3d5a04acd21p-3,
     0x1.a118947cc557fp-3, 0x1.559266a2dbe1ap+7,
     0x1.0c10c9714fbcep+8, 0x0p+0,
     0x1.de6d1d60864b9p+0, 0x0p+0,
     0, 0},
    {"SNAPSHOT",
     0x1.4497ed298355bp-2, 0x1.1a77fe1eafb99p-2,
     0x1.71ad6c052f0ccp-2, 0x1.84a612644539cp+6,
     0x1.449c53ef368ebp+9, 0x1.3560864b8a7dep+6,
     0x1.8p+1, 0x0p+0,
     0, 0},
    {"SWITCH",
     0x1.b73a72debf24fp-4, 0x1.84dd0e19820cdp-4,
     0x1.de541621792b4p-4, 0x1.2a55254101c84p+8,
     0x1.2f90c9714fbcep+7, 0x1.767582192e29fp+6,
     0x1.a3ac10c9714fcp-3, 0x0p+0,
     0, 0},
    {"QDIGEST",
     0x1.0ecbcd90f83bap-2, 0x1.b23633fecbaf3p-3,
     0x1.471364bfe01cfp-2, 0x1.d034b4e744c7ap+6,
     0x1.03fbcda3ac10cp+8, 0x0p+0,
     0x0p+0, 0x1.e9b47582192e2p+3,
     32, 243},
    {"GK",
     0x1.1f67b2d9a42bfp-2, 0x1.ee85317dc1349p-3,
     0x1.3ef1f2de5e54ep-2, 0x1.af9ffc162e895p+6,
     0x1.052b04325c53fp+8, 0x0p+0,
     0x0p+0, 0x1.bd60864b8a7dfp+1,
     10, 195},
    {"SAMPLE",
     0x1.44075e7963646p-4, 0x1.09d00b574891fp-4,
     0x1.8da1d53410bdcp-4, 0x1.9c918c8eb53fcp+8,
     0x1.7182192e29f7ap+6, 0x1.996d1d60864b9p+7,
     0x0p+0, 0x1.70eb04325c53ep+3,
     52, 233},
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kChurnGolden[] = {
    {"TAG",
     0x1.e174fbcfd6f23p-3, 0x1.629ce59e23a0dp-3,
     0x1.3e362f51d668fp-2, 0x1.0ae972fff1c7ap+7,
     0x1.fe714fbcda3acp+7, 0x1.a1ba3ac10c972p+9,
     0x0p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"POS",
     0x1.b8f1358190c31p-3, 0x1.97c0899aa722ap-3,
     0x1.ddc0cdf35d29p-3, 0x1.286ca9123a4bp+7,
     0x1.4c04325c53ef4p+8, 0x1.f2b47582192e3p+6,
     0x1.e29f79b475822p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"HBC",
     0x1.a498e27e9bcb4p-3, 0x1.80bf45447c65bp-3,
     0x1.c6374f01f71c3p-3, 0x1.33ef97e796348p+7,
     0x1.59d714fbcda3bp+8, 0x1.55e6d1d60864cp+4,
     0x1.e192e29f79b47p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"IQ",
     0x1.d419ff9aa62c6p-4, 0x1.a478e61cee50ep-4,
     0x1.01cfa47a348eap-3, 0x1.1a96ee995cc32p+8,
     0x1.443cda3ac10c9p+7, 0x1.e14b8a7de6d1ep+6,
     0x1.cda3ac10c9714p-3, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-H",
     0x1.eb04e37beac24p-3, 0x1.869adac60f5cp-3,
     0x1.261a4ad397b79p-2, 0x1.06608fe681a57p+7,
     0x1.09810c9714fbdp+8, 0x1.31714fbcda3acp+3,
     0x1.1b47582192e2ap-1, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-S",
     0x1.8d4ec131b8567p-3, 0x1.3ebbdea3d8d3ep-3,
     0x1.dab4f4c8007cep-3, 0x1.43e3eb06c2239p+7,
     0x1.6c02192e29f7ap+7, 0x1.a9714fbcda3adp+1,
     0x1.4fbcda3ac10c9p-3, 0x1.39b47582192e3p+0,
     7, 76},
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kChurnDegreeGolden[] = {
    {"TAG",
     0x1.1767accca2fe8p-3, 0x1.9f8690180283ap-4,
     0x1.68c33473579fdp-3, 0x1.c93cfbbff8fcap+7,
     0x1.000325c53ef36p+8, 0x1.a1ba3ac10c972p+9,
     0x0p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"POS",
     0x1.75690b554a1a5p-3, 0x1.53610dc01f073p-3,
     0x1.a73cc60c78c24p-3, 0x1.5c3d2b59cd5bfp+7,
     0x1.3164b8a7de6d2p+9, 0x1.f2b47582192e3p+6,
     0x1.e29f79b475822p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"HBC",
     0x1.6374fd53173dcp-3, 0x1.40a87a18c74dp-3,
     0x1.92e66c00fd4f1p-3, 0x1.6b8f53e1ab633p+7,
     0x1.3eb0c9714fbcep+9, 0x1.55e6d1d60864cp+4,
     0x1.e192e29f79b47p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"IQ",
     0x1.7a513f35b18f3p-4, 0x1.53802acd72825p-4,
     0x1.a8e15f787c047p-4, 0x1.58ee59ab253d5p+8,
     0x1.1ed1d60864b8ap+8, 0x1.f4ac10c9714fcp+6,
     0x1.cda3ac10c9714p-3, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-H",
     0x1.5c23b7952d236p-3, 0x1.0d720b9667813p-3,
     0x1.ba3a7cd71572bp-3, 0x1.7844cc4573744p+7,
     0x1.65db47582192ep+8, 0x1.31714fbcda3acp+3,
     0x1.1b47582192e2ap-1, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-S",
     0x1.1ce9eeaf60848p-3, 0x1.b8191fffe3659p-4,
     0x1.69531550ca1cep-3, 0x1.cfe2f010a4b5ep+7,
     0x1.e049714fbcda4p+7, 0x1.a9714fbcda3adp+1,
     0x1.4fbcda3ac10c9p-3, 0x1.39b47582192e3p+0,
     7, 76},
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kChurnRandomGolden[] = {
    {"TAG",
     0x1.8f25a01db200ep-3, 0x1.09ffe68f23c71p-3,
     0x1.1b2ed080700afp-2, 0x1.4c6836517eaedp+7,
     0x1.ff5a3ac10c972p+7, 0x1.a1ba3ac10c972p+9,
     0x0p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"POS",
     0x1.c186a33574c6cp-3, 0x1.7d1c3895e36b3p-3,
     0x1.09ed8f23923f3p-2, 0x1.28f268dbcc39ap+7,
     0x1.e80fbcda3ac1p+8, 0x1.f2b47582192e3p+6,
     0x1.e29f79b475822p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"HBC",
     0x1.a8c475b167949p-3, 0x1.6a83e8d2a42c7p-3,
     0x1.f1e0f08fef2acp-3, 0x1.3404de9b598acp+7,
     0x1.fed4fbcda3ac1p+8, 0x1.55e6d1d60864cp+4,
     0x1.e192e29f79b47p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"IQ",
     0x1.d83d0b039a8a5p-4, 0x1.866b71f878f54p-4,
     0x1.1439f8af6a48p-3, 0x1.1b766a6aa98p+8,
     0x1.d1p+7, 0x1.eb47582192e2ap+6,
     0x1.cda3ac10c9714p-3, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-H",
     0x1.d3c51d88ae0dap-3, 0x1.68654c1340ed1p-3,
     0x1.21b8f182842b8p-2, 0x1.2b5ae16f6893fp+7,
     0x1.3e725c53ef369p+8, 0x1.31714fbcda3acp+3,
     0x1.1b47582192e2ap-1, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-S",
     0x1.825e1a4b60694p-3, 0x1.2329c8c8186a8p-3,
     0x1.df87448482b4ap-3, 0x1.6fe5e1f51cea2p+7,
     0x1.af3ac10c9714fp+7, 0x1.a9714fbcda3adp+1,
     0x1.4fbcda3ac10c9p-3, 0x1.39b47582192e3p+0,
     7, 76},
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr GoldenRow kChurnArqGolden[] = {
    {"TAG",
     0x1.8e9d2f9a3da8dp-2, 0x1.3401b361ebfaep-2,
     0x1.f39440e1b8086p-2, 0x1.491f191c5db6p+6,
     0x1.29e64b8a7de6dp+9, 0x1.a1ba3ac10c972p+9,
     0x0p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"POS",
     0x1.7b5a7f7a92b04p-2, 0x1.634e4737320f7p-2,
     0x1.94e0511c2481fp-2, 0x1.5ecec2b2262a2p+6,
     0x1.0cfd60864b8a8p+9, 0x1.f2b47582192e3p+6,
     0x1.e29f79b475822p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"HBC",
     0x1.6d3e1907ef131p-2, 0x1.4e3c3b3960a8cp-2,
     0x1.8a4ad917e736ep-2, 0x1.6a439766a14d1p+6,
     0x1.176b04325c53fp+9, 0x1.55e6d1d60864cp+4,
     0x1.e192e29f79b47p+0, 0x1.39b47582192e3p+0,
     7, 76},
    {"IQ",
     0x1.90f74e0feeed2p-3, 0x1.657e5f5ab635dp-3,
     0x1.b89c7470b6562p-3, 0x1.5397ca42b20eap+7,
     0x1.138c9714fbcdap+8, 0x1.e14b8a7de6d1ep+6,
     0x1.cda3ac10c9714p-3, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-H",
     0x1.a3c0d309ef9aep-2, 0x1.5eeb243d0b4a3p-2,
     0x1.db37d6ce8e9f2p-2, 0x1.3a2c6d66ae5eep+6,
     0x1.1b5a3ac10c971p+9, 0x1.31714fbcda3acp+3,
     0x1.1b47582192e2ap-1, 0x1.39b47582192e3p+0,
     7, 76},
    {"LCLL-S",
     0x1.515f589489f9p-2, 0x1.18bdc6f78f1bcp-2,
     0x1.7bf10cde9766dp-2, 0x1.8c3ead7588d73p+6,
     0x1.92325c53ef369p+8, 0x1.a9714fbcda3adp+1,
     0x1.4fbcda3ac10c9p-3, 0x1.39b47582192e3p+0,
     7, 76},
};

/// Every LifetimeResult field of one battery-drain run; the death list is
/// frozen as its length plus a fold of its (round, vertex, battery) events.
struct LifetimeGoldenRow {
  const char* label;
  int64_t first_death_round;
  int64_t p10_death_round;
  int64_t p25_death_round;
  int64_t end_round;
  int reinit_epochs;
  int64_t exact_rounds;
  int64_t total_rounds;
  size_t deaths;
  uint64_t deaths_fold;
};

// Regenerate with WSNQ_UPDATE_GOLDEN=1 (see file comment).
constexpr LifetimeGoldenRow kLifetimeGolden[] = {
    {"nearest", 394, 484, 680, 694, 10, 694, 694, 45,
     0xbce637ea457ec10fULL},
    {"degree", 452, 498, -1, 598, 9, 598, 598, 35,
     0xadece7ac239c8787ULL},
    {"random", 404, 542, 564, 639, 12, 639, 639, 45,
     0xeec8b5c316ccadc6ULL},
};

/// Every registered protocol outside PaperAlgorithms(), in registry order.
std::vector<AlgorithmKind> ExtensionAlgorithms() {
  return {AlgorithmKind::kPosSr,     AlgorithmKind::kHbcNtb,
          AlgorithmKind::kSnapshot,  AlgorithmKind::kSwitching,
          AlgorithmKind::kQdigest,   AlgorithmKind::kGk,
          AlgorithmKind::kSampling};
}

SimulationConfig GoldenConfig() {
  SimulationConfig config;  // §5.1 defaults: 256 sensors, rho=35, phi=0.5
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  config.rounds = 60;
  config.threads = 1;  // determinism across thread counts has its own test
  return config;
}

/// GoldenConfig plus node churn: eight sensors crash at round 5 and recover
/// at round 25, and the tree is repaired at both transitions.
SimulationConfig ChurnConfig() {
  SimulationConfig config = GoldenConfig();
  config.fault.crash_nodes = 8;
  config.fault.crash_round = 5;
  config.fault.crash_len = 20;
  return config;
}

/// ChurnConfig over a routing tree built with `selection`; repair
/// rebuilds with the same policy.
SimulationConfig ChurnConfig(ParentSelection selection) {
  SimulationConfig config = ChurnConfig();
  config.tree_strategy = selection;
  return config;
}

/// ChurnConfig on lossy links with stop-and-wait ARQ.
SimulationConfig ChurnArqConfig() {
  SimulationConfig config = ChurnConfig();
  config.fault.loss = 0.1;
  config.fault.arq.enabled = true;
  return config;
}

constexpr int kGoldenRuns = 4;

void PrintReplacementTable(const char* table,
                           const std::vector<AlgorithmAggregate>& aggs) {
  std::printf("constexpr GoldenRow %s[] = {\n", table);
  for (const AlgorithmAggregate& agg : aggs) {
    std::printf(
        "    {\"%s\",\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %a, %a,\n"
        "     %lld, %lld},\n",
        agg.label.c_str(), agg.max_round_energy_mj.mean(),
        agg.max_round_energy_mj.min(), agg.max_round_energy_mj.max(),
        agg.lifetime_rounds.mean(), agg.packets.mean(), agg.values.mean(),
        agg.refinements.mean(), agg.rank_error.mean(),
        static_cast<long long>(agg.max_rank_error),
        static_cast<long long>(agg.errors));
  }
  std::printf("};\n");
}

/// Runs `algorithms` on `config` and compares every
/// aggregate field bit-exactly against `golden` (or, with
/// WSNQ_UPDATE_GOLDEN set, prints the replacement table `table` and skips).
template <size_t N>
void ExpectMatchesGolden(const SimulationConfig& config,
                         const std::vector<AlgorithmKind>& algorithms,
                         const GoldenRow (&golden)[N], const char* table) {
  auto aggregates = RunExperiment(config, algorithms, kGoldenRuns);
  ASSERT_TRUE(aggregates.ok()) << aggregates.status().ToString();

  if (GetEnv("WSNQ_UPDATE_GOLDEN").has_value()) {
    PrintReplacementTable(table, aggregates.value());
    GTEST_SKIP() << "WSNQ_UPDATE_GOLDEN set: printed replacement table, "
                    "assertions skipped";
  }

  ASSERT_EQ(aggregates.value().size(), N)
      << "protocol set changed; regenerate the golden table";
  for (size_t i = 0; i < N; ++i) {
    const AlgorithmAggregate& agg = aggregates.value()[i];
    const GoldenRow& want = golden[i];
    SCOPED_TRACE(std::string("algo=") + want.label);
    EXPECT_EQ(agg.label, want.label);
    EXPECT_EQ(agg.runs, kGoldenRuns);
    EXPECT_EQ(agg.max_round_energy_mj.mean(), want.energy_mean);
    EXPECT_EQ(agg.max_round_energy_mj.min(), want.energy_min);
    EXPECT_EQ(agg.max_round_energy_mj.max(), want.energy_max);
    EXPECT_EQ(agg.lifetime_rounds.mean(), want.lifetime_mean);
    EXPECT_EQ(agg.packets.mean(), want.packets_mean);
    EXPECT_EQ(agg.values.mean(), want.values_mean);
    EXPECT_EQ(agg.refinements.mean(), want.refinements_mean);
    EXPECT_EQ(agg.rank_error.mean(), want.rank_error_mean);
    EXPECT_EQ(agg.max_rank_error, want.max_rank_error);
    EXPECT_EQ(agg.errors, want.errors);
  }
}

TEST(GoldenAggregate, DefaultConfigMatchesFrozenValues) {
  ExpectMatchesGolden(GoldenConfig(), PaperAlgorithms(), kGolden, "kGolden");
}

TEST(GoldenAggregate, ExtensionsMatchFrozenValues) {
  ExpectMatchesGolden(GoldenConfig(), ExtensionAlgorithms(), kExtensionGolden,
                      "kExtensionGolden");
}

TEST(GoldenAggregate, ChurnWithRepairMatchesFrozenValues) {
  ExpectMatchesGolden(ChurnConfig(), PaperAlgorithms(), kChurnGolden,
                      "kChurnGolden");
}

TEST(GoldenAggregate, ChurnWithRepairOnDegreeBalancedTreeMatchesFrozenValues) {
  ExpectMatchesGolden(ChurnConfig(ParentSelection::kDegreeBalanced),
                      PaperAlgorithms(), kChurnDegreeGolden,
                      "kChurnDegreeGolden");
}

TEST(GoldenAggregate, ChurnWithRepairOnRandomTreeMatchesFrozenValues) {
  ExpectMatchesGolden(ChurnConfig(ParentSelection::kRandom), PaperAlgorithms(),
                      kChurnRandomGolden, "kChurnRandomGolden");
}

TEST(GoldenAggregate, ChurnWithRepairUnderArqMatchesFrozenValues) {
  ExpectMatchesGolden(ChurnArqConfig(), PaperAlgorithms(), kChurnArqGolden,
                      "kChurnArqGolden");
}

/// FNV-1a over every death event, in order.
uint64_t FoldDeaths(const std::vector<DeathEvent>& deaths) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto absorb = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (const DeathEvent& d : deaths) {
    absorb(static_cast<uint64_t>(d.round));
    absorb(static_cast<uint64_t>(d.vertex));
    absorb(d.battery ? 1 : 0);
  }
  return h;
}

// One battery-drain run of IQ per routing-tree policy: every death rebuilds
// the epoch tree over the survivors still reachable from the sink.
TEST(GoldenAggregate, LifetimeMatchesFrozenValues) {
  SimulationConfig config;
  config.num_sensors = 48;
  config.radio_range = 45.0;
  config.synthetic.period_rounds = 50;
  config.synthetic.noise_percent = 10;
  LifetimeOptions options;
  options.max_rounds = 6000;
  const struct {
    const char* label;
    ParentSelection selection;
  } policies[] = {{"nearest", ParentSelection::kNearest},
                  {"degree", ParentSelection::kDegreeBalanced},
                  {"random", ParentSelection::kRandom}};
  std::vector<LifetimeResult> results;
  for (const auto& policy : policies) {
    config.tree_strategy = policy.selection;
    StatusOr<Scenario> scenario = BuildScenario(config, 0);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    results.push_back(RunLifetimeSimulation(config, scenario.value(),
                                            AlgorithmKind::kIq, options));
  }

  if (GetEnv("WSNQ_UPDATE_GOLDEN").has_value()) {
    std::printf("constexpr LifetimeGoldenRow kLifetimeGolden[] = {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const LifetimeResult& r = results[i];
      std::printf("    {\"%s\", %lld, %lld, %lld, %lld, %d, %lld, %lld, %zu,\n"
                  "     0x%016llxULL},\n",
                  policies[i].label,
                  static_cast<long long>(r.first_death_round),
                  static_cast<long long>(r.p10_death_round),
                  static_cast<long long>(r.p25_death_round),
                  static_cast<long long>(r.end_round), r.reinit_epochs,
                  static_cast<long long>(r.exact_rounds),
                  static_cast<long long>(r.total_rounds), r.deaths.size(),
                  static_cast<unsigned long long>(FoldDeaths(r.deaths)));
    }
    std::printf("};\n");
    GTEST_SKIP() << "WSNQ_UPDATE_GOLDEN set: printed replacement table, "
                    "assertions skipped";
  }

  ASSERT_EQ(results.size(), std::size(kLifetimeGolden));
  for (size_t i = 0; i < results.size(); ++i) {
    const LifetimeResult& r = results[i];
    const LifetimeGoldenRow& want = kLifetimeGolden[i];
    SCOPED_TRACE(std::string("tree=") + want.label);
    EXPECT_STREQ(policies[i].label, want.label);
    EXPECT_EQ(r.first_death_round, want.first_death_round);
    EXPECT_EQ(r.p10_death_round, want.p10_death_round);
    EXPECT_EQ(r.p25_death_round, want.p25_death_round);
    EXPECT_EQ(r.end_round, want.end_round);
    EXPECT_EQ(r.reinit_epochs, want.reinit_epochs);
    EXPECT_EQ(r.exact_rounds, want.exact_rounds);
    EXPECT_EQ(r.total_rounds, want.total_rounds);
    EXPECT_EQ(r.deaths.size(), want.deaths);
    EXPECT_EQ(FoldDeaths(r.deaths), want.deaths_fold);
  }
}

// The exactness headline of the paper on the frozen configuration, kept
// separate so a golden drift and an exactness break are distinguishable
// at a glance.
TEST(GoldenAggregate, DefaultConfigIsExact) {
  auto aggregates =
      RunExperiment(GoldenConfig(), PaperAlgorithms(), kGoldenRuns);
  ASSERT_TRUE(aggregates.ok());
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    EXPECT_EQ(agg.errors, 0) << agg.label;
    EXPECT_EQ(agg.max_rank_error, 0) << agg.label;
  }
}

}  // namespace
}  // namespace wsnq
