#include "serve/client.h"

#include <errno.h>
#include <poll.h>

#include <utility>

namespace wsnq {
namespace serve {
namespace {

constexpr int64_t kReadChunk = 64 * 1024;

}  // namespace

Status Client::Connect(int port) {
  StatusOr<int> fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  fd_.reset(fd.value());
  closed_ = false;
  return Status::Ok();
}

void Client::QueueFrame(const Frame& frame) {
  // Compact the sent prefix once it dominates the buffer.
  if (send_at_ > 0 && send_at_ == sendbuf_.size()) {
    sendbuf_.clear();
    send_at_ = 0;
  } else if (send_at_ > 4096 && send_at_ > sendbuf_.size() / 2) {
    sendbuf_.erase(sendbuf_.begin(),
                   sendbuf_.begin() + static_cast<ptrdiff_t>(send_at_));
    send_at_ = 0;
  }
  AppendFrame(frame, &sendbuf_);
}

std::vector<Frame> Client::TakeFrames() {
  std::vector<Frame> frames;
  frames.swap(inbox_);
  return frames;
}

void Client::Close() {
  fd_.reset();
  closed_ = true;
}

bool Client::Flush() {
  while (send_at_ < sendbuf_.size()) {
    StatusOr<int64_t> n =
        WriteFd(fd_.get(), sendbuf_.data() + send_at_,
                static_cast<int64_t>(sendbuf_.size() - send_at_));
    if (!n.ok()) return false;
    if (n.value() < 0) return true;  // kernel buffer full
    send_at_ += static_cast<size_t>(n.value());
  }
  return true;
}

bool Client::Drain() {
  uint8_t buf[kReadChunk];
  bool open = true;
  for (;;) {
    StatusOr<int64_t> n = ReadFd(fd_.get(), buf, kReadChunk);
    if (!n.ok() || n.value() == 0) {  // error or EOF
      open = false;
      break;
    }
    if (n.value() < 0) break;  // drained
    reader_.Feed(buf, static_cast<size_t>(n.value()));
  }
  // Decode what arrived before reporting a close: a peer that writes its
  // last frames and hangs up must not lose them.
  Frame frame;
  for (;;) {
    const ReadResult result = reader_.Next(&frame, nullptr);
    if (result == ReadResult::kNeedMore) return open;
    if (result == ReadResult::kMalformed) return false;
    inbox_.push_back(std::move(frame));
    ++frames_received_;
  }
}

Status PumpClients(const std::vector<Client*>& clients, int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<size_t> index;
  fds.reserve(clients.size());
  index.reserve(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    Client* client = clients[i];
    if (!client->fd_.valid() || client->closed_) continue;
    short events = POLLIN;
    if (client->has_pending_output()) events |= POLLOUT;
    fds.push_back(pollfd{client->fd_.get(), events, 0});
    index.push_back(i);
  }
  if (fds.empty()) return Status::Ok();

  const int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) {
    return Status::Internal("poll failed");
  }
  if (ready <= 0) return Status::Ok();

  for (size_t i = 0; i < index.size(); ++i) {
    Client* client = clients[index[i]];
    const short revents = fds[i].revents;
    bool alive = (revents & (POLLERR | POLLNVAL)) == 0;
    if (alive && (revents & POLLOUT) != 0) alive = client->Flush();
    if (alive && (revents & (POLLIN | POLLHUP)) != 0) {
      alive = client->Drain();
    }
    if (!alive) client->Close();
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace wsnq
