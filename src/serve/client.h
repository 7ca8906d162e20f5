// Client side of the wsnq serving protocol, socket code included — the
// load generator and the smoke tests link this instead of opening sockets
// themselves, keeping every socket syscall under src/serve/ (serve-syscall
// lint rule).
//
// A Client is one non-blocking loopback connection with a send queue and
// a decoded-frame inbox; PumpClients() is the multiplexer that polls any
// number of them at once, flushing queued bytes and draining inbound
// frames. The load generator runs open-loop: it queues pipelined
// SUBSCRIBE frames, pumps, and consumes acks/pushes from the inboxes.

#ifndef WSNQ_SERVE_CLIENT_H_
#define WSNQ_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/sockets.h"
#include "serve/wire.h"

namespace wsnq {
namespace serve {

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to 127.0.0.1:`port` (non-blocking; the first pump completes
  /// the handshake).
  Status Connect(int port);

  /// Queues one frame for transmission on the next pump.
  void QueueFrame(const Frame& frame);

  /// Frames received since the last call (in arrival order).
  std::vector<Frame> TakeFrames();

  bool connected() const { return fd_.valid(); }
  /// Peer closed or the inbound stream was malformed.
  bool closed() const { return closed_; }
  bool has_pending_output() const { return send_at_ < sendbuf_.size(); }
  int64_t frames_received() const { return frames_received_; }

  void Close();

 private:
  friend Status PumpClients(const std::vector<Client*>& clients,
                            int timeout_ms);

  /// Non-blocking flush/drain; false when the connection is finished.
  /// Drain decodes every complete frame it read into the inbox first, so
  /// frames that arrive together with the peer's close are kept.
  bool Flush();
  bool Drain();

  UniqueFd fd_;
  std::vector<uint8_t> sendbuf_;
  size_t send_at_ = 0;
  FrameReader reader_;
  std::vector<Frame> inbox_;
  int64_t frames_received_ = 0;
  bool closed_ = false;
};

/// Polls every open client for up to `timeout_ms`, writing pending bytes
/// and decoding inbound frames into each client's inbox. Connections that
/// close or go malformed are marked closed(), not errors.
Status PumpClients(const std::vector<Client*>& clients, int timeout_ms);

}  // namespace serve
}  // namespace wsnq

#endif  // WSNQ_SERVE_CLIENT_H_
