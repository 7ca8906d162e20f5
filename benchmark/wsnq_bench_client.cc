// wsnq_bench_client: open-loop load client of the serve-10k workload
// (benchmark/README.md). One process, one thread, --connections loopback
// connections through serve::Client.
//
// Subscriptions are sent on a fixed schedule (--sub-rate per second from
// --sub-start-s after the daemon's banner), whatever the daemon's progress,
// and each ack is timed from its *scheduled* send time. Every ANSWER push of
// the measurement window — broker rounds [--window-start, --window-start +
// --window-rounds) — is timed from its round's due time,
//
//   due(round) = banner time + (round + 1) / --rate,
//
// the instant the daemon's paced loop was supposed to tick that round, so a
// daemon that falls behind shows up as growing latency rather than being
// hidden by measuring each push against its round's first push. Every
// --check-every-th window round is checked against FieldOracle. Prints one
// JSON report line; run.py turns it into metrics and pass/fail counts.
//
//   wsnq_bench_client --port=P --subs-file=PATH --t0-ns=NS --rate=50
//       --window-start=125 --window-rounds=850 --nodes=128 --seed=1

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "histogram.h"
#include "json_line.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "serve_workload.h"
#include "spans.h"
#include "util/flags.h"

namespace {

using namespace wsnq;
using benchmark::LatencyHistogram;
using benchmark::MonotonicNs;

int Fail(const std::string& message) {
  std::fprintf(stderr, "wsnq_bench_client: %s\n", message.c_str());
  return 1;
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string subs_path = flags.GetString("subs-file", "");
  const int connections = static_cast<int>(flags.GetInt("connections", 4));
  const int64_t t0_ns = flags.GetInt("t0-ns", 0);
  const double rate = flags.GetDouble("rate", 50.0);
  const double sub_rate = flags.GetDouble("sub-rate", 5000.0);
  const double sub_start_s = flags.GetDouble("sub-start-s", 0.1);
  const int64_t window_start = flags.GetInt("window-start", 0);
  const int64_t window_rounds = flags.GetInt("window-rounds", 0);
  const int64_t check_every = flags.GetInt("check-every", 50);
  const int nodes = static_cast<int>(flags.GetInt("nodes", 128));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double timeout_s = flags.GetDouble("timeout-s", 60.0);
  for (const std::string& error : flags.errors()) return Fail(error);
  for (const std::string& unused : flags.UnusedFlags()) {
    return Fail("unknown flag --" + unused);
  }
  if (port <= 0 || t0_ns <= 0 || rate <= 0.0 || sub_rate <= 0.0 ||
      window_rounds < 1 || check_every < 1 || connections < 1) {
    return Fail("need --port, --t0-ns, --window-rounds and positive rates");
  }
  StatusOr<std::vector<serve::SubscribeRequest>> loaded =
      benchmark::LoadSubscriptions(subs_path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::vector<serve::SubscribeRequest>& subs = loaded.value();
  const size_t n = subs.size();

  std::vector<std::unique_ptr<serve::Client>> owned;
  std::vector<serve::Client*> clients;
  for (int c = 0; c < connections; ++c) {
    owned.push_back(std::make_unique<serve::Client>());
    const Status status = owned.back()->Connect(port);
    if (!status.ok()) return Fail(status.ToString());
    clients.push_back(owned.back().get());
  }

  const double ns_per_round = 1e9 / rate;
  const auto due_ns = [&](int64_t round) {
    return t0_ns + static_cast<int64_t>(static_cast<double>(round + 1) *
                                        ns_per_round);
  };
  std::vector<int64_t> scheduled(n);
  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = t0_ns + static_cast<int64_t>(
                               (sub_start_s + static_cast<double>(i) /
                                                  sub_rate) * 1e9);
  }

  benchmark::FieldOracle oracle(benchmark::ServeBaseConfig(nodes, seed));
  std::vector<std::vector<size_t>> sub_of_request(clients.size());
  std::unordered_map<uint64_t, size_t> sub_of_id;
  std::vector<int64_t> rank(n, 0);
  std::vector<int64_t> window_count(static_cast<size_t>(window_rounds), 0);
  std::vector<double> window_latency_sum(static_cast<size_t>(window_rounds),
                                         0.0);
  LatencyHistogram ack_hist;
  LatencyHistogram push_hist;
  int64_t acks = 0;
  int64_t late_subs = 0;
  int64_t checked = 0;
  int64_t wrong = 0;
  int64_t errors = 0;
  int64_t unknown = 0;
  int64_t closed = 0;
  int64_t complete_rounds = 0;
  int64_t early_pushes = 0;
  int64_t send_lag_max_ns = 0;
  size_t next_sub = 0;
  bool timed_out = false;

  const int64_t start_ns = MonotonicNs();
  const double start_cpu = CpuSeconds();
  const int64_t deadline = start_ns + static_cast<int64_t>(timeout_s * 1e9);
  for (;;) {
    int64_t now = MonotonicNs();
    if (now > deadline) {
      timed_out = true;
      break;
    }
    for (; next_sub < n && scheduled[next_sub] <= now; ++next_sub) {
      const size_t conn = next_sub % clients.size();
      serve::Frame frame;
      frame.request_id = sub_of_request[conn].size() + 1;
      frame.opcode = static_cast<uint8_t>(serve::Opcode::kSubscribe);
      frame.payload = serve::EncodeSubscribePayload(subs[next_sub]);
      clients[conn]->QueueFrame(frame);
      sub_of_request[conn].push_back(next_sub);
      send_lag_max_ns = std::max(send_lag_max_ns, now - scheduled[next_sub]);
    }
    const int timeout_ms =
        next_sub < n
            ? static_cast<int>(std::clamp<int64_t>(
                  (scheduled[next_sub] - now) / 1000000, 0, 1))
            : 10;
    const Status pumped = serve::PumpClients(clients, timeout_ms);
    if (!pumped.ok()) return Fail(pumped.ToString());
    now = MonotonicNs();

    bool all_closed = true;
    for (size_t conn = 0; conn < clients.size(); ++conn) {
      for (const serve::Frame& frame : clients[conn]->TakeFrames()) {
        switch (static_cast<serve::Opcode>(frame.opcode)) {
          case serve::Opcode::kSubscribeAck: {
            StatusOr<serve::SubscribeAck> ack =
                serve::DecodeSubscribeAckPayload(frame.payload);
            const size_t req = static_cast<size_t>(frame.request_id - 1);
            if (!ack.ok() || req >= sub_of_request[conn].size()) {
              ++errors;
              break;
            }
            const size_t sub = sub_of_request[conn][req];
            ack_hist.Record(now - scheduled[sub]);
            sub_of_id[ack.value().sub_id] = sub;
            rank[sub] = ack.value().rank;
            ++acks;
            if (ack.value().round > window_start) ++late_subs;
            break;
          }
          case serve::Opcode::kAnswer: {
            StatusOr<serve::AnswerPush> push =
                serve::DecodeAnswerPayload(frame.payload);
            if (!push.ok()) {
              ++errors;
              break;
            }
            const int64_t round = push.value().round;
            const int64_t w = round - window_start;
            if (w < 0 || w >= window_rounds) break;
            const auto it = sub_of_id.find(push.value().sub_id);
            if (it == sub_of_id.end()) {
              ++unknown;
              break;
            }
            const int64_t latency = now - due_ns(round);
            // Only possible if --t0-ns is later than the daemon's tick origin.
            if (latency < 0) ++early_pushes;
            push_hist.Record(latency);
            window_latency_sum[static_cast<size_t>(w)] +=
                static_cast<double>(latency);
            if (++window_count[static_cast<size_t>(w)] ==
                static_cast<int64_t>(n)) {
              ++complete_rounds;
            }
            if (round % check_every == 0) {
              ++checked;
              StatusOr<int64_t> want =
                  oracle.Kth(subs[it->second].field, round, rank[it->second]);
              if (!want.ok() || want.value() != push.value().value) ++wrong;
            }
            break;
          }
          case serve::Opcode::kError:
            ++errors;
            break;
          default:
            break;
        }
      }
      all_closed = all_closed && clients[conn]->closed();
    }
    if ((acks == static_cast<int64_t>(n) && complete_rounds == window_rounds) ||
        all_closed) {
      break;
    }
  }
  const double wall_s = static_cast<double>(MonotonicNs() - start_ns) * 1e-9;
  const double busy_ratio = (CpuSeconds() - start_cpu) / wall_s;
  const bool complete =
      acks == static_cast<int64_t>(n) && complete_rounds == window_rounds;
  for (serve::Client* client : clients) {
    // run.py stops the daemon only after this client has exited, so any
    // close seen here is a failure unless everything had already arrived.
    if (client->closed() && !complete) ++closed;
    client->Close();
  }

  int64_t received = 0;
  for (const int64_t count : window_count) {
    received += std::min<int64_t>(count, static_cast<int64_t>(n));
  }
  // Backlog check: mean push latency of the window's last tenth of rounds
  // minus its first tenth. A daemon keeping pace stays near zero.
  const size_t tenth = std::max<size_t>(1, window_count.size() / 10);
  double head = 0.0;
  double tail = 0.0;
  int64_t head_n = 0;
  int64_t tail_n = 0;
  for (size_t w = 0; w < tenth; ++w) {
    head += window_latency_sum[w];
    head_n += window_count[w];
    tail += window_latency_sum[window_count.size() - 1 - w];
    tail_n += window_count[window_count.size() - 1 - w];
  }
  const double growth_ms =
      (head_n > 0 && tail_n > 0)
          ? (tail / static_cast<double>(tail_n) -
             head / static_cast<double>(head_n)) * 1e-6
          : 0.0;

  std::printf(
      "%s\n",
      benchmark::JsonLine()
          .Int("subs", static_cast<int64_t>(n))
          .Int("acks", acks)
          .Int("late_subs", late_subs)
          .Int("expected_pushes", static_cast<int64_t>(n) * window_rounds)
          .Int("received_pushes", received)
          .Int("complete_rounds", complete_rounds)
          .Int("checked", checked)
          .Int("wrong", wrong)
          .Int("errors", errors)
          .Int("unknown", unknown)
          .Int("closed", closed)
          .Int("timed_out", timed_out ? 1 : 0)
          .Int("early_pushes", early_pushes)
          .Num("send_lag_max_ms", static_cast<double>(send_lag_max_ns) * 1e-6)
          .Num("busy_ratio", busy_ratio)
          .Num("lateness_growth_ms", growth_ms)
          .Raw("ack_hist", ack_hist.ToJson())
          .Raw("push_hist", push_hist.ToJson())
          .str()
          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
