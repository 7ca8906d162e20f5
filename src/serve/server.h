// The event-driven serving daemon core: one poll(2) readiness loop
// multiplexing every client connection, no thread-per-connection.
//
// Threading model: the loop thread owns all sessions and the broker's
// subscription tables; the only parallelism is inside
// QuantileBroker::AdvanceRound, which fans simulation shards over a
// deterministic ThreadPool and joins before any socket is touched.
// Sockets never appear below this layer — core/, net/, algo/ stay
// transport-free (serve-syscall lint rule).
//
// Round pacing: Run() ticks the broker at `rounds_per_sec`, pushing each
// round's answers into the affected sessions' outboxes; the poll loop
// then drains them under POLLOUT readiness. Slow readers buffer in
// userspace (the outbox) rather than blocking the loop or the backend.

#ifndef WSNQ_SERVE_SERVER_H_
#define WSNQ_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "serve/broker.h"
#include "serve/session.h"
#include "serve/sockets.h"
#include "util/status.h"

namespace wsnq {
namespace serve {

/// Daemon configuration (validated by serve/serve_cli.h).
struct ServerOptions {
  /// Loopback TCP port; 0 binds an ephemeral port (see Server::port()).
  int port = 0;
  /// Broker round pacing (> 0).
  double rounds_per_sec = 20.0;
  /// Stop after this many rounds; 0 = run until the stop flag.
  int64_t max_rounds = 0;
  BrokerOptions broker;
};

/// Transport-level counters, reported on the daemon's exit stats line
/// (the broker keeps its own, BrokerStats).
struct ServerStats {
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t protocol_closes = 0;  ///< closes forced by protocol errors
  /// accept() failures other than an empty queue (e.g. EMFILE); each one
  /// takes the listener out of the poll set until a session closes or the
  /// next round tick, so a persistently failing accept cannot spin poll.
  int64_t accept_errors = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
};

class Server : public RequestSink {
 public:
  explicit Server(const ServerOptions& options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; after this, port() is the actual port.
  Status Listen();
  int port() const { return port_; }

  /// One poll iteration: accept, read/dispatch, flush. Waits at most
  /// `timeout_ms` for readiness.
  Status PollOnce(int timeout_ms);

  /// Advances the broker one round and queues the pushes.
  Status TickRound();

  /// Serves until `*stop` (may be null), or until max_rounds rounds have
  /// been ticked; then drains pending outboxes and returns.
  Status Run(const std::atomic<bool>* stop);

  // RequestSink — forwards to the broker.
  StatusOr<SubscribeAck> OnSubscribe(int64_t session_id,
                                     const SubscribeRequest& request) override;
  Status OnUnsubscribe(int64_t session_id, uint64_t sub_id) override;

  int64_t sessions() const { return static_cast<int64_t>(conns_.size()); }
  BrokerStats broker_stats() const { return broker_.stats(); }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Conn {
    UniqueFd fd;
    std::unique_ptr<Session> session;
  };

  void AcceptPending();
  /// Reads everything available; feeds the session. False => drop conn.
  bool ReadConn(Conn* conn);
  /// Writes as much outbox as the socket takes. False => drop conn.
  bool WriteConn(Conn* conn);
  void CloseConn(int64_t session_id, bool protocol_error);
  bool AnyPendingOutput() const;

  const ServerOptions options_;
  QuantileBroker broker_;
  UniqueFd listener_;
  int port_ = 0;
  /// Connections keyed by session id (== broker session id).
  std::map<int64_t, Conn> conns_;
  int64_t next_session_id_ = 1;
  /// Set by an accept error; the listener sits out of poll until cleared.
  bool accept_paused_ = false;
  ServerStats stats_;
};

}  // namespace serve
}  // namespace wsnq

#endif  // WSNQ_SERVE_SERVER_H_
