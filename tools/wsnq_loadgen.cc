// wsnq_loadgen: deterministic open-loop load generator for wsnq_served.
//
// Opens --connections loopback connections, pipelines --subs SUBSCRIBE
// requests across them (field and rank chosen by a seed-keyed hash, so
// the same --seed reproduces the same subscription population), then
// observes --rounds complete answer rounds and reports:
//   * subscribe-ack latency p50/p99 (queue-to-ack, open loop), and
//   * round-push latency p50/p99 — each push measured against the first
//     push of its round, i.e. the fan-out skew across the population —
//   * sustained pushes/sec over the observation window.
//
// Output is one "# loadgen key=value ..." line (tests/serve/
// run_serve_smoke.py parses it). Exit 0 only if
// every subscription was acked and every observed round delivered every
// push with zero protocol errors.
//
// Example, against a daemon on port 9190:
//   wsnq_loadgen --port=9190 --subs=100000 --connections=16 --rounds=10

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/serve_cli.h"
#include "serve/wire.h"
#include "util/flags.h"
#include "util/trace.h"

namespace {

using namespace wsnq;

/// SplitMix64: the seed-keyed assignment of subs to fields/ranks.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1) + 0.5);
  return (*sorted_in_place)[std::min(index, sorted_in_place->size() - 1)];
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  serve::LoadgenConfig cli;
  cli.port = static_cast<int>(flags.GetInt("port", 0));
  cli.subs = flags.GetInt("subs", 1000);
  cli.connections = static_cast<int>(flags.GetInt("connections", 8));
  cli.fields = static_cast<int>(flags.GetInt("fields", 16));
  cli.rounds = flags.GetInt("rounds", 10);
  cli.seed = flags.GetInt("seed", 1);
  const double timeout_sec = flags.GetDouble("timeout-sec", 120.0);

  serve::LoadgenFlagPresence present;
  present.port = flags.Has("port");
  present.subs = flags.Has("subs");
  present.connections = flags.Has("connections");
  present.fields = flags.Has("fields");
  present.rounds = flags.Has("rounds");
  present.seed = flags.Has("seed");

  for (const std::string& err : flags.errors()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag --%s\n", unused.c_str());
    return 2;
  }
  const Status valid = serve::ValidateLoadgenFlags(cli, present);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  // Connect.
  std::vector<std::unique_ptr<serve::Client>> owned(
      static_cast<size_t>(cli.connections));
  std::vector<serve::Client*> clients;
  for (auto& client : owned) {
    client = std::make_unique<serve::Client>();
    const Status status = client->Connect(cli.port);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    clients.push_back(client.get());
  }

  // Queue the whole subscription population, pipelined and open-loop:
  // sub i rides connection i % connections with that connection's next
  // request id. send_time[conn][req_id-1] anchors the ack latency.
  std::vector<std::vector<double>> send_time(clients.size());
  std::vector<uint64_t> next_request_id(clients.size(), 1);
  const double t_start = prof::WallSeconds();
  for (int64_t i = 0; i < cli.subs; ++i) {
    const size_t conn = static_cast<size_t>(i) % clients.size();
    const uint64_t h = Mix(static_cast<uint64_t>(cli.seed) * 0x51ED2701ull +
                           static_cast<uint64_t>(i));
    serve::SubscribeRequest request;
    request.field =
        "field-" + std::to_string(h % static_cast<uint64_t>(cli.fields));
    request.rank_permille = static_cast<uint32_t>(1 + (h >> 32) % 1000);
    serve::Frame frame;
    frame.request_id = next_request_id[conn]++;
    frame.opcode = static_cast<uint8_t>(serve::Opcode::kSubscribe);
    frame.payload = serve::EncodeSubscribePayload(request);
    clients[conn]->QueueFrame(frame);
    send_time[conn].push_back(prof::WallSeconds());
  }

  // Pump until every ack arrived and `rounds` rounds delivered a push to
  // every subscription.
  std::vector<double> ack_latencies_ms;
  ack_latencies_ms.reserve(static_cast<size_t>(cli.subs));
  std::vector<double> push_latencies_ms;
  int64_t acks = 0;
  int64_t errors = 0;
  int64_t pushes = 0;
  double first_push_time = 0.0;
  double last_push_time = 0.0;
  /// round -> (count, time of the round's first observed push).
  std::map<int64_t, std::pair<int64_t, double>> round_state;
  std::vector<std::vector<double>> round_latencies;  // per observed round

  const double deadline = t_start + timeout_sec;
  int64_t complete_rounds = 0;
  while (prof::WallSeconds() < deadline) {
    const Status status = serve::PumpClients(clients, 50);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    const double now = prof::WallSeconds();
    for (size_t conn = 0; conn < clients.size(); ++conn) {
      for (const serve::Frame& frame : clients[conn]->TakeFrames()) {
        switch (static_cast<serve::Opcode>(frame.opcode)) {
          case serve::Opcode::kSubscribeAck: {
            ++acks;
            const size_t req = static_cast<size_t>(frame.request_id - 1);
            if (req < send_time[conn].size()) {
              ack_latencies_ms.push_back(
                  (now - send_time[conn][req]) * 1000.0);
            }
            break;
          }
          case serve::Opcode::kAnswer: {
            StatusOr<serve::AnswerPush> push =
                serve::DecodeAnswerPayload(frame.payload);
            if (!push.ok()) {
              ++errors;
              break;
            }
            ++pushes;
            if (first_push_time == 0.0) first_push_time = now;
            last_push_time = now;
            auto [it, fresh] = round_state.try_emplace(
                push.value().round, std::pair<int64_t, double>{0, now});
            ++it->second.first;
            const double skew_ms = (now - it->second.second) * 1000.0;
            if (fresh) round_latencies.emplace_back();
            // Rounds arrive in order per connection; map order is fine.
            round_latencies[static_cast<size_t>(
                                std::distance(round_state.begin(), it))]
                .push_back(skew_ms);
            if (it->second.first == cli.subs) ++complete_rounds;
            break;
          }
          case serve::Opcode::kError:
            ++errors;
            break;
          default:
            break;
        }
      }
      if (clients[conn]->closed()) ++errors;
    }
    if (errors > 0) break;
    if (acks == cli.subs && complete_rounds >= cli.rounds) break;
  }

  // Only complete rounds count toward the latency distribution: a round
  // cut off by shutdown would fake a thin tail.
  size_t round_index = 0;
  for (const auto& [round, state] : round_state) {
    if (state.first == cli.subs &&
        round_index < round_latencies.size()) {
      push_latencies_ms.insert(push_latencies_ms.end(),
                               round_latencies[round_index].begin(),
                               round_latencies[round_index].end());
    }
    ++round_index;
  }

  const double span = last_push_time - first_push_time;
  const double pushes_per_sec =
      span > 0.0 ? static_cast<double>(pushes) / span : 0.0;
  const double ack_p50 = Percentile(&ack_latencies_ms, 0.50);
  const double ack_p99 = Percentile(&ack_latencies_ms, 0.99);
  const double push_p50 = Percentile(&push_latencies_ms, 0.50);
  const double push_p99 = Percentile(&push_latencies_ms, 0.99);

  const bool ok = errors == 0 && acks == cli.subs &&
                  complete_rounds >= cli.rounds;
  std::printf(
      "# loadgen subs=%lld connections=%d fields=%d rounds_observed=%lld "
      "acks=%lld ack_p50_ms=%.3f ack_p99_ms=%.3f push_p50_ms=%.3f "
      "push_p99_ms=%.3f pushes_per_sec=%.1f pushes=%lld errors=%lld "
      "ok=%d\n",
      static_cast<long long>(cli.subs), cli.connections, cli.fields,
      static_cast<long long>(complete_rounds), static_cast<long long>(acks),
      ack_p50, ack_p99, push_p50, push_p99, pushes_per_sec,
      static_cast<long long>(pushes), static_cast<long long>(errors),
      ok ? 1 : 0);
  if (!ok) {
    std::fprintf(stderr,
                 "loadgen incomplete: acks=%lld/%lld rounds=%lld/%lld "
                 "errors=%lld\n",
                 static_cast<long long>(acks),
                 static_cast<long long>(cli.subs),
                 static_cast<long long>(complete_rounds),
                 static_cast<long long>(cli.rounds),
                 static_cast<long long>(errors));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
