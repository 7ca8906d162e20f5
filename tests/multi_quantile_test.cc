// Multi-quantile extension: all tracked ranks stay exact every round, the
// shared convergecast beats independent per-rank queries on packets, and
// the per-round accounting is pinned to a golden file.
//
// The golden file tests/golden/multi_iq_accounting.txt records, for every
// round of six fixed scenarios, the round's energy summed over vertices
// (hex float), the lifetime packet / value / convergecast totals and the
// refinement count. After an intentional accounting change, regenerate it
// with:
//
//   WSNQ_UPDATE_GOLDEN=1 ./build/tests/multi_quantile_test
//
// which rewrites the file in the source tree (WSNQ_TEST_SRCDIR) and skips.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/iq.h"
#include "algo/multi_quantile.h"
#include "algo/oracle.h"
#include "fault/fault_plan.h"
#include "net/wave.h"
#include "tests/test_scenario.h"
#include "util/env.h"
#include "util/rng.h"

namespace wsnq {
namespace {

using testing_support::MakeRandomNetwork;

TEST(MultiIqTest, AllRanksExactUnderDrift) {
  Network net = MakeRandomNetwork(60, 81);
  const std::vector<int64_t> ks = {15, 30, 45};  // quartiles of 60
  MultiIqProtocol protocol(ks, 0, 4095, WireFormat{}, {});
  Rng rng(3);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int v = 1; v < net.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = rng.UniformInt(1500, 2500);
  }
  for (int64_t round = 0; round <= 30; ++round) {
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    const auto sensors = SensorValues(net, values);
    for (int i = 0; i < protocol.num_ranks(); ++i) {
      ASSERT_EQ(protocol.quantile(i), OracleKth(sensors, protocol.rank(i)))
          << "rank " << protocol.rank(i) << " round " << round;
    }
    const int64_t shift = rng.UniformInt(-25, 25);
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = std::clamp<int64_t>(
          values[static_cast<size_t>(v)] + shift + rng.UniformInt(-10, 10),
          0, 4095);
    }
  }
}

TEST(MultiIqTest, ExactUnderChaosToo) {
  Network net = MakeRandomNetwork(40, 83);
  MultiIqProtocol protocol({4, 20, 37}, 0, 255, WireFormat{}, {});
  Rng rng(7);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 25; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 255);
    }
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    const auto sensors = SensorValues(net, values);
    for (int i = 0; i < protocol.num_ranks(); ++i) {
      ASSERT_EQ(protocol.quantile(i), OracleKth(sensors, protocol.rank(i)))
          << "round " << round;
    }
  }
}

TEST(MultiIqTest, SingleRankMatchesPlainIq) {
  // With one rank the shared machinery degenerates to plain IQ: same
  // answers on the same workload.
  Network net_multi = MakeRandomNetwork(50, 85);
  Network net_plain = MakeRandomNetwork(50, 85);
  MultiIqProtocol multi({25}, 0, 2047, WireFormat{}, {});
  IqProtocol plain(25, 0, 2047, WireFormat{}, {});
  Rng rng(9);
  std::vector<int64_t> values(static_cast<size_t>(net_multi.num_vertices()),
                              0);
  for (int v = 1; v < net_multi.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = rng.UniformInt(900, 1100);
  }
  for (int64_t round = 0; round <= 20; ++round) {
    net_multi.BeginRound();
    net_plain.BeginRound();
    multi.RunRound(&net_multi, values, round);
    plain.RunRound(&net_plain, values, round);
    ASSERT_EQ(multi.quantile(0), plain.quantile()) << "round " << round;
    for (int v = 1; v < net_multi.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] += rng.UniformInt(-4, 4);
    }
  }
}

TEST(MultiIqTest, SharedConvergecastBeatsIndependentQueries) {
  // Three ranks tracked together vs three separate IQ queries over the
  // same topology and workload: the shared variant pays fewer packets
  // (headers amortized) — the point of the extension.
  const std::vector<int64_t> ks = {12, 25, 38};
  Rng workload_rng(11);
  std::vector<std::vector<int64_t>> rows;
  {
    std::vector<int64_t> row(50);
    for (auto& v : row) v = workload_rng.UniformInt(1000, 1400);
    for (int t = 0; t <= 40; ++t) {
      for (auto& v : row) {
        v = std::clamp<int64_t>(v + workload_rng.UniformInt(-6, 6), 0, 2047);
      }
      rows.push_back(row);
    }
  }
  auto fill = [&](const Network& net, int64_t t,
                  std::vector<int64_t>* values) {
    int sensor = 0;
    for (int v = 0; v < net.num_vertices(); ++v) {
      if (!net.is_root(v)) {
        (*values)[static_cast<size_t>(v)] =
            rows[static_cast<size_t>(t)][static_cast<size_t>(sensor++)];
      }
    }
  };

  Network shared_net = MakeRandomNetwork(50, 87);
  MultiIqProtocol shared(ks, 0, 2047, WireFormat{}, {});
  std::vector<int64_t> values(static_cast<size_t>(shared_net.num_vertices()),
                              0);
  for (int64_t t = 0; t <= 40; ++t) {
    fill(shared_net, t, &values);
    shared_net.BeginRound();
    shared.RunRound(&shared_net, values, t);
  }
  const int64_t shared_packets = shared_net.total_packets();

  int64_t independent_packets = 0;
  for (int64_t k : ks) {
    Network net = MakeRandomNetwork(50, 87);
    IqProtocol iq(k, 0, 2047, WireFormat{}, {});
    for (int64_t t = 0; t <= 40; ++t) {
      fill(net, t, &values);
      net.BeginRound();
      iq.RunRound(&net, values, t);
    }
    independent_packets += net.total_packets();
  }
  EXPECT_LT(shared_packets, independent_packets);
}

// --- Accounting golden ----------------------------------------------------

const char kAccountingGolden[] = "/golden/multi_iq_accounting.txt";
constexpr int64_t kAccountingRounds = 60;

/// One golden scenario: a network of 128 sensors, the tracked ranks, and
/// what is installed on the network before round 0.
struct AccountingCase {
  const char* name;
  std::vector<int64_t> ks;
  /// Installed as a FaultPlan when enabled().
  FaultConfig fault;
  uint64_t fault_seed = 0;
  bool executor = false;
};

/// Frame loss with a short stop-and-wait retry budget, so a few uplinks are
/// lost outright (OnLost runs) and the per-rank filters drift apart.
///
/// The two golden settings lose 11 and 2 uplinks and leave the filters out
/// of rank order in some rounds, but never leave the initial collection or
/// a refinement short, so the golden does not reach MultiIqProtocol's
/// best-effort fallbacks. MultiIqLossTest.EverySweepRunFinishes does.
FaultConfig ShortArq(double loss, int max_retx) {
  FaultConfig fault;
  fault.loss = loss;
  fault.arq.enabled = true;
  fault.arq.max_retx = max_retx;
  return fault;
}

/// Runs `c` over a drifting value script and appends one line per round.
void AppendAccounting(const AccountingCase& c, std::string* out) {
  constexpr int kSensors = 128;
  Network net = MakeRandomNetwork(kSensors, 91);
  if (c.fault.enabled()) {
    net.set_transport_policy(std::make_unique<FaultPlan>(
        c.fault, c.fault_seed, /*run=*/0, net.num_vertices(), net.root()));
  }
  WaveExecutor executor(/*threads=*/2, /*target_parts=*/6);
  if (c.executor) net.set_wave_executor(&executor);
  MultiIqProtocol protocol(c.ks, 0, 4095, WireFormat{}, {});
  Rng rng(13);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int v = 1; v < net.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = rng.UniformInt(1500, 2500);
  }
  for (int64_t round = 0; round < kAccountingRounds; ++round) {
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    double energy = 0.0;
    for (int v = 0; v < net.num_vertices(); ++v) energy += net.round_energy(v);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s round=%lld energy=%a packets=%lld values=%lld "
                  "convergecasts=%lld refinements=%lld\n",
                  c.name, static_cast<long long>(round), energy,
                  static_cast<long long>(net.total_packets()),
                  static_cast<long long>(net.total_values()),
                  static_cast<long long>(net.total_convergecasts()),
                  static_cast<long long>(protocol.refinements_last_round()));
    *out += line;
    const int64_t shift = rng.UniformInt(-20, 20);
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = std::clamp<int64_t>(
          values[static_cast<size_t>(v)] + shift + rng.UniformInt(-12, 12),
          0, 4095);
    }
  }
}

std::string ReadGolden(const std::string& path) {
  std::string body;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return body;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  return body;
}

/// Ranks 1..128: every rank of the 128-sensor accounting network.
std::vector<int64_t> AllRanks() {
  std::vector<int64_t> all(128);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i) + 1;
  return all;
}

/// A random quarter of AllRanks(), in increasing order.
std::vector<int64_t> QuarterRanks() {
  std::vector<int64_t> quarter;
  Rng pick(17);
  for (int64_t k : AllRanks()) {
    if (pick.UniformInt(0, 3) == 0) quarter.push_back(k);
  }
  return quarter;
}

TEST(MultiIqGoldenTest, AccountingMatchesFrozenFile) {
  const std::vector<int64_t> all = AllRanks();
  const std::vector<int64_t> quarter = QuarterRanks();
  const std::vector<AccountingCase> cases = {
      {"dense", all, FaultConfig{}, 0, false},
      {"quarter", quarter, FaultConfig{}, 0, false},
      {"lossy-quarter", quarter, ShortArq(0.1, 2), /*fault_seed=*/8, false},
      {"lossy-dense", all, ShortArq(0.1, 3), /*fault_seed=*/5, false},
      {"executor", all, FaultConfig{}, 0, /*executor=*/true},
      {"executor-quarter", quarter, FaultConfig{}, 0, /*executor=*/true},
  };
  std::string actual;
  for (const AccountingCase& c : cases) AppendAccounting(c, &actual);

  const std::string path = std::string(WSNQ_TEST_SRCDIR) + kAccountingGolden;
  if (GetEnv("WSNQ_UPDATE_GOLDEN").has_value()) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    ASSERT_EQ(std::fwrite(actual.data(), 1, actual.size(), f), actual.size());
    ASSERT_EQ(std::fclose(f), 0);
    GTEST_SKIP() << "rewrote " << path;
  }
  const std::string expected = ReadGolden(path);
  ASSERT_FALSE(expected.empty())
      << "cannot read " << path << "; regenerate with WSNQ_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected);
}

// Loss that leaves the initial collection or a refinement short must fall
// back like IQ does (best-effort k-th, the rank clamped into a short
// response, the filter kept when nothing arrived) instead of aborting:
// every run of the sweep finishes all its rounds.
TEST(MultiIqLossTest, EverySweepRunFinishes) {
  const std::vector<int64_t> quarter = QuarterRanks();
  for (double loss : {0.05, 0.1, 0.2}) {
    for (int max_retx : {0, 1, 2}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        std::string lines;
        AppendAccounting(
            {"sweep", quarter, ShortArq(loss, max_retx), seed, false},
            &lines);
        EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'),
                  kAccountingRounds)
            << "loss=" << loss << " max_retx=" << max_retx
            << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace wsnq
