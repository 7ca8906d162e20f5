// The subscription mux: fans client subscriptions over a pool of
// simulation shards and coalesces compatible ones into a single backend
// convergecast per field per round.
//
// Layering: this is the backend half of the daemon and is deliberately
// socket-free — the wire/event layers (serve/session.h, serve/server.h)
// sit in front of it, which is what makes the coalescing and determinism
// contracts unit-testable without a network (tests/serve_test.cc).
//
// Model:
//  * every distinct field name owns one *stream*: a Scenario (built
//    through a shared ScenarioCache, so fields alias one deployment) plus
//    one MultiIqProtocol tracking the union of all subscribed ranks —
//    N subscriptions on a field cost one shared convergecast per round,
//    not N (MultiIQ answers several ranks in one pass; the per-stream
//    answer table is the content-keyed per-round answer cache that makes
//    duplicate subscriptions free);
//  * streams are assigned to shards by a stable hash of the field name;
//    AdvanceRound() fans the shards out over the deterministic ThreadPool
//    and folds the pushes on the calling thread in subscription-id order,
//    so the push sequence — and every answer payload byte — is identical
//    for every shard count and thread count (the repo's parallel
//    discipline, docs/hardening.md);
//  * rank-set changes (new rank subscribed / last rank unsubscribed) mark
//    the stream's protocol dirty; the next advance rebuilds the MultiIQ
//    instance, which re-initializes with one collection convergecast and
//    stays exact — answers are the exact k-th smallest values, so they
//    are independent of when rebuilds happen.

#ifndef WSNQ_SERVE_BROKER_H_
#define WSNQ_SERVE_BROKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/multi_quantile.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace serve {

/// Broker configuration (validated by serve/serve_cli.h).
struct BrokerOptions {
  /// Deployment + workload defaults every field derives from
  /// (serve/field_catalog.h). `base.threads` is ignored; see `threads`.
  SimulationConfig base;
  /// Simulation shards the streams are hashed over (>= 1).
  int shards = 1;
  /// Worker threads for the per-round shard fan-out (>= 1; 1 = serial).
  int threads = 1;
  /// Subscription-table capacity; Subscribe fails beyond it.
  int64_t max_subs = 1 << 20;
};

/// One pending answer push, in subscription-id order.
struct AnswerEvent {
  int64_t session_id = 0;
  AnswerPush answer;
};

/// Monotonic counters of the backend (exposed via the daemon's exit stats
/// line and asserted by the coalescing test).
struct BrokerStats {
  int64_t rounds = 0;             ///< AdvanceRound calls
  int64_t subscribes = 0;         ///< accepted subscriptions
  int64_t unsubscribes = 0;       ///< accepted unsubscriptions
  int64_t pushes = 0;             ///< answer events emitted
  int64_t backend_rounds = 0;     ///< stream-rounds advanced (1 per stream
                                  ///< per round, regardless of sub count)
  int64_t convergecasts = 0;      ///< network-level convergecasts (shared
                                  ///< validation + init collections +
                                  ///< refinements), summed over streams
  int64_t protocol_rebuilds = 0;  ///< MultiIQ rebuilds after rank changes
  int64_t streams = 0;            ///< live streams
  int64_t subs = 0;               ///< live subscriptions
  int64_t cache_hits = 0;         ///< ScenarioCache hits (deployment reuse)
  int64_t cache_misses = 0;
};

class QuantileBroker {
 public:
  explicit QuantileBroker(const BrokerOptions& options);
  QuantileBroker(const QuantileBroker&) = delete;
  QuantileBroker& operator=(const QuantileBroker&) = delete;

  /// Registers a subscription for `session_id`. Creates the field's
  /// stream on first use (serial; called from the event-loop thread).
  /// Fails with ResourceExhausted-style FailedPrecondition at max_subs and
  /// InvalidArgument on an unresolvable rank.
  StatusOr<SubscribeAck> Subscribe(int64_t session_id,
                                   const SubscribeRequest& request);

  /// Removes `sub_id`; NotFound unless it exists and belongs to
  /// `session_id`. Dropping the last rank reference marks the stream's
  /// protocol dirty; dropping the last subscription frees the stream.
  Status Unsubscribe(int64_t session_id, uint64_t sub_id);

  /// Drops every subscription of a disconnecting session.
  void DropSession(int64_t session_id);

  /// Advances every stream one round (shards over the thread pool) and
  /// appends this round's pushes to `*events` in subscription-id order.
  Status AdvanceRound(std::vector<AnswerEvent>* events);

  /// Backend round counter: rounds 0 .. round()-1 have been served.
  int64_t round() const { return round_; }

  BrokerStats stats() const;

 private:
  /// One field's backend: scenario + coalesced multi-rank protocol.
  struct Stream {
    std::string field;
    Scenario scenario;
    std::unique_ptr<MultiIqProtocol> protocol;
    /// Sorted unique subscribed ranks with reference counts.
    std::map<int64_t, int64_t> rank_refs;
    /// Ranks the live protocol instance was built over (sorted).
    std::vector<int64_t> ranks;
    bool ranks_dirty = true;
    /// Rounds run on the current protocol instance (MultiIQ initializes
    /// on its local round 0; rebuilt instances restart from 0 while the
    /// value stream keeps following the broker round).
    int64_t local_round = 0;
    /// answers[i]: current round's exact value of ranks[i].
    std::vector<int64_t> answers;
    int shard = 0;
    /// Network convergecasts observed after the last advance (the
    /// per-stream slice of BrokerStats::convergecasts).
    int64_t convergecasts = 0;
    /// Protocol rebuilds on this stream (rank-set changes).
    int64_t rebuilds = 0;
  };

  struct Subscription {
    int64_t session_id = 0;
    Stream* stream = nullptr;
    int64_t rank = 0;
  };

  StatusOr<Stream*> GetOrCreateStream(const std::string& field);
  /// Rebuilds the protocol if dirty, then runs one round. Called from the
  /// shard fan-out; streams on distinct shards never share mutable state.
  void AdvanceStream(Stream* stream);

  const BrokerOptions options_;
  ScenarioCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  /// Stream registry; keyed by field name. Streams are owned here and
  /// indexed per shard in creation order for the fan-out.
  std::map<std::string, std::unique_ptr<Stream>> streams_;
  std::vector<std::vector<Stream*>> shard_streams_;
  /// Subscription table in id order (the push fold order).
  std::map<uint64_t, Subscription> subs_;
  uint64_t next_sub_id_ = 1;
  int64_t round_ = 0;
  BrokerStats stats_;
};

}  // namespace serve
}  // namespace wsnq

#endif  // WSNQ_SERVE_BROKER_H_
