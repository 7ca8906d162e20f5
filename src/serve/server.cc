#include "serve/server.h"

#include <errno.h>
#include <poll.h>

#include <algorithm>
#include <vector>

#include "util/trace.h"

namespace wsnq {
namespace serve {
namespace {

constexpr int64_t kReadChunk = 64 * 1024;

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), broker_(options.broker) {}

Status Server::Listen() {
  StatusOr<int> fd = ListenLoopback(options_.port);
  if (!fd.ok()) return fd.status();
  listener_.reset(fd.value());
  StatusOr<int> port = BoundPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = port.value();
  return Status::Ok();
}

StatusOr<SubscribeAck> Server::OnSubscribe(int64_t session_id,
                                           const SubscribeRequest& request) {
  return broker_.Subscribe(session_id, request);
}

Status Server::OnUnsubscribe(int64_t session_id, uint64_t sub_id) {
  return broker_.Unsubscribe(session_id, sub_id);
}

void Server::AcceptPending() {
  for (;;) {
    StatusOr<int> fd = AcceptConnection(listener_.get());
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kNotFound) return;  // drained
      // The pending connection stays queued and the listener stays
      // readable, so retrying right away would spin: back off instead.
      ++stats_.accept_errors;
      accept_paused_ = true;
      return;
    }
    const int64_t session_id = next_session_id_++;
    Conn conn;
    conn.fd = UniqueFd(fd.value());
    conn.session = std::make_unique<Session>(session_id, this);
    conns_.emplace(session_id, std::move(conn));
    ++stats_.sessions_opened;
  }
}

bool Server::ReadConn(Conn* conn) {
  uint8_t buf[kReadChunk];
  for (;;) {
    StatusOr<int64_t> n = ReadFd(conn->fd.get(), buf, kReadChunk);
    if (!n.ok()) return false;
    if (n.value() == 0) return false;  // orderly EOF
    if (n.value() < 0) return true;    // would block; try again on POLLIN
    stats_.bytes_in += n.value();
    conn->session->OnBytes(buf, static_cast<size_t>(n.value()));
    if (conn->session->dead()) return false;
    if (conn->session->closing()) return true;  // flush error frame first
  }
}

bool Server::WriteConn(Conn* conn) {
  Session* session = conn->session.get();
  while (session->has_output()) {
    StatusOr<int64_t> n =
        WriteFd(conn->fd.get(), session->output_data(),
                static_cast<int64_t>(session->output_size()));
    if (!n.ok()) return false;
    if (n.value() < 0) return true;  // kernel buffer full; wait for POLLOUT
    stats_.bytes_out += n.value();
    session->ConsumeOutput(static_cast<size_t>(n.value()));
  }
  // Error frame delivered: the protocol-error close completes here.
  return !session->closing();
}

void Server::CloseConn(int64_t session_id, bool protocol_error) {
  broker_.DropSession(session_id);
  conns_.erase(session_id);
  accept_paused_ = false;  // a descriptor was freed: accepting may succeed
  ++stats_.sessions_closed;
  if (protocol_error) ++stats_.protocol_closes;
}

Status Server::PollOnce(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<int64_t> ids;  // ids[i] maps fds[i+1] back to its session
  fds.reserve(conns_.size() + 1);
  ids.reserve(conns_.size());
  // poll ignores negative descriptors: a paused listener is not watched.
  fds.push_back(pollfd{accept_paused_ ? -1 : listener_.get(), POLLIN, 0});
  for (const auto& [session_id, conn] : conns_) {
    short events = POLLIN;
    if (conn.session->has_output()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd.get(), events, 0});
    ids.push_back(session_id);
  }

  const int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) {
    return Status::Internal("poll failed");
  }
  if (ready <= 0) return Status::Ok();

  if ((fds[0].revents & POLLIN) != 0) AcceptPending();

  for (size_t i = 0; i < ids.size(); ++i) {
    const pollfd& pfd = fds[i + 1];
    auto it = conns_.find(ids[i]);
    if (it == conns_.end()) continue;
    Conn* conn = &it->second;
    bool alive = true;
    bool protocol_error = false;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      alive = false;
    }
    if (alive && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
      alive = ReadConn(conn);
      protocol_error = !alive && conn->session->dead();
    }
    // Always try to flush after dispatch: most replies fit the socket
    // buffer, which saves a poll round-trip per request.
    if (alive && conn->session->has_output()) {
      alive = WriteConn(conn);
      protocol_error = protocol_error || conn->session->closing();
    } else if (alive && conn->session->closing()) {
      alive = false;  // error frame already flushed
      protocol_error = true;
    }
    if (!alive) CloseConn(ids[i], protocol_error);
  }
  return Status::Ok();
}

Status Server::TickRound() {
  accept_paused_ = false;  // retry a failed accept once per round
  std::vector<AnswerEvent> events;
  const Status status = broker_.AdvanceRound(&events);
  if (!status.ok()) return status;
  for (const AnswerEvent& event : events) {
    auto it = conns_.find(event.session_id);
    if (it == conns_.end()) continue;  // session vanished mid-round
    it->second.session->PushAnswer(event.answer);
  }
  // Kick the flush immediately instead of waiting for the next POLLOUT
  // wakeup; sessions whose sockets fill up fall back to the poll loop.
  std::vector<int64_t> drop;
  for (auto& [session_id, conn] : conns_) {
    if (conn.session->has_output() && !WriteConn(&conn)) {
      drop.push_back(session_id);
    }
  }
  for (const int64_t session_id : drop) CloseConn(session_id, false);
  return Status::Ok();
}

bool Server::AnyPendingOutput() const {
  for (const auto& [session_id, conn] : conns_) {
    if (conn.session->has_output()) return true;
  }
  return false;
}

Status Server::Run(const std::atomic<bool>* stop) {
  const double period = 1.0 / options_.rounds_per_sec;
  double next_tick = prof::WallSeconds() + period;
  int64_t rounds = 0;
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    const double now = prof::WallSeconds();
    const int timeout_ms = std::max(
        0, static_cast<int>((next_tick - now) * 1000.0));
    Status status = PollOnce(timeout_ms);
    if (!status.ok()) return status;
    if (prof::WallSeconds() >= next_tick) {
      status = TickRound();
      if (!status.ok()) return status;
      next_tick += period;
      ++rounds;
      if (options_.max_rounds > 0 && rounds >= options_.max_rounds) break;
    }
  }
  // Grace period: drain queued pushes so clients observe every round that
  // was ticked, then return.
  const double deadline = prof::WallSeconds() + 2.0;
  while (AnyPendingOutput() && prof::WallSeconds() < deadline) {
    const Status status = PollOnce(10);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace wsnq
