// wsnq_served: event-driven quantile-serving daemon.
//
// Serves continuous quantile subscriptions over loopback TCP: clients
// SUBSCRIBE to (field, rank) pairs with the length-prefixed binary
// protocol of docs/serving.md and receive one ANSWER push per backend
// round. The backend is the paper's simulator — every field name resolves
// to a synthetic sensor deployment (serve/field_catalog.h) and all
// subscriptions on a field coalesce into one MultiIQ convergecast per
// round (serve/broker.h).
//
// Examples:
//   wsnq_served --port=9190 --shards=4 --threads=4
//   wsnq_served --port=0 --max-rounds=50 --rounds-per-sec=100   # smoke
//
// Flags:
//   --port=P            loopback TCP port (0 = ephemeral; the bound port
//                       is printed on the startup line)
//   --shards=N          simulation shards fields are hashed over (>= 1)
//   --threads=N         worker threads for the shard fan-out (>= 1;
//                       answers are bit-identical for every value)
//   --max-subs=N        subscription-table capacity
//   --rounds-per-sec=R  backend round pacing (> 0)
//   --max-rounds=N      exit cleanly after N rounds (0 = until SIGINT)
//   --nodes=N           sensors per field deployment
//   --seed=S            deployment seed (shared by every field)
//
// Startup prints "# wsnq_served listening port=... " on stdout; exit
// prints a "# served ..." stats line. Invalid flag combinations exit 2
// with a one-line reason (serve/serve_cli.h).

#include <atomic>
#include <csignal>
#include <cstdio>

#include "serve/serve_cli.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

using namespace wsnq;

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  serve::ServedConfig cli;
  cli.port = static_cast<int>(flags.GetInt("port", 0));
  cli.shards = static_cast<int>(flags.GetInt("shards", 1));
  cli.threads = static_cast<int>(flags.GetInt("threads", 1));
  cli.max_subs = flags.GetInt("max-subs", 1 << 20);
  cli.rounds_per_sec = flags.GetDouble("rounds-per-sec", 20.0);
  cli.max_rounds = flags.GetInt("max-rounds", 0);

  serve::ServedFlagPresence present;
  present.port = flags.Has("port");
  present.shards = flags.Has("shards");
  present.threads = flags.Has("threads");
  present.max_subs = flags.Has("max-subs");
  present.rounds_per_sec = flags.Has("rounds-per-sec");
  present.max_rounds = flags.Has("max-rounds");

  serve::ServerOptions options;
  options.port = cli.port;
  options.rounds_per_sec = cli.rounds_per_sec;
  options.max_rounds = cli.max_rounds;
  options.broker.shards = cli.shards;
  options.broker.threads = cli.threads;
  options.broker.max_subs = cli.max_subs;
  options.broker.base.num_sensors =
      static_cast<int>(flags.GetInt("nodes", 64));
  options.broker.base.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 1));

  for (const std::string& err : flags.errors()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag --%s\n", unused.c_str());
    return 2;
  }
  const Status valid = serve::ValidateServedFlags(cli, present);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  if (options.broker.base.num_sensors < 2) {
    std::fprintf(stderr, "--nodes must be >= 2\n");
    return 2;
  }

  serve::Server server(options);
  Status status = server.Listen();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("# wsnq_served listening port=%d shards=%d threads=%d "
              "rounds_per_sec=%g\n",
              server.port(), cli.shards, cli.threads, cli.rounds_per_sec);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  status = server.Run(&g_stop);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  const serve::BrokerStats broker = server.broker_stats();
  const serve::ServerStats& transport = server.stats();
  std::printf(
      "# served rounds=%lld subscribes=%lld unsubscribes=%lld pushes=%lld "
      "backend_rounds=%lld convergecasts=%lld rebuilds=%lld streams=%lld "
      "subs=%lld cache_hits=%lld cache_misses=%lld sessions_opened=%lld "
      "sessions_closed=%lld protocol_closes=%lld accept_errors=%lld "
      "bytes_in=%lld bytes_out=%lld errors=0\n",
      static_cast<long long>(broker.rounds),
      static_cast<long long>(broker.subscribes),
      static_cast<long long>(broker.unsubscribes),
      static_cast<long long>(broker.pushes),
      static_cast<long long>(broker.backend_rounds),
      static_cast<long long>(broker.convergecasts),
      static_cast<long long>(broker.protocol_rebuilds),
      static_cast<long long>(broker.streams),
      static_cast<long long>(broker.subs),
      static_cast<long long>(broker.cache_hits),
      static_cast<long long>(broker.cache_misses),
      static_cast<long long>(transport.sessions_opened),
      static_cast<long long>(transport.sessions_closed),
      static_cast<long long>(transport.protocol_closes),
      static_cast<long long>(transport.accept_errors),
      static_cast<long long>(transport.bytes_in),
      static_cast<long long>(transport.bytes_out));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
