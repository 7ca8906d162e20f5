// Traced replay of serve-10k: an in-process QuantileBroker with the
// daemon's BrokerOptions and the same subscription population, driven one
// call at a time — Subscribe (paced over the first rounds, as the client
// paces them), AdvanceRound, AppendFrame encoding of every ANSWER push into
// per-connection buffers, FrameReader decoding — with the client-side
// oracle checking every check_every-th round.

#ifndef WSNQ_BENCHMARK_SERVE_REPLAY_H_
#define WSNQ_BENCHMARK_SERVE_REPLAY_H_

#include <cstdint>
#include <string>

#include "spans.h"
#include "util/status.h"

namespace wsnq {
namespace benchmark {

struct ServeReplayOptions {
  std::string subs_path;
  int nodes = 128;
  uint64_t seed = 1;
  int shards = 4;
  int threads = 2;
  int connections = 4;
  /// Broker rounds advanced in total; subscriptions spread evenly over
  /// the first `subscribe_rounds` of them.
  int64_t rounds = 0;
  int64_t subscribe_rounds = 1;
  int64_t check_every = 50;
};

StatusOr<std::string> RunServeReplay(const ServeReplayOptions& options,
                                     SpanRecorder* recorder);

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_SERVE_REPLAY_H_
