#include "serve/session.h"

#include "util/check.h"

namespace wsnq {
namespace serve {

void Session::OnBytes(const uint8_t* data, size_t len) {
  if (dead_ || closing_) return;
  reader_.Feed(data, len);
  Frame frame;
  std::string error;
  for (;;) {
    const ReadResult result = reader_.Next(&frame, &error);
    if (result == ReadResult::kNeedMore) return;
    if (result == ReadResult::kMalformed) {
      // The byte stream itself is broken; an error frame could not be
      // trusted to arrive intact, so condemn the connection silently.
      dead_ = true;
      return;
    }
    HandleFrame(frame);
    if (dead_ || closing_) return;
  }
}

void Session::HandleFrame(const Frame& frame) {
  if (frame.request_id == 0) {
    SendError(0, "request id 0 is reserved for server pushes",
              /*fatal=*/true);
    return;
  }
  if (frame.request_id <= last_request_id_) {
    SendError(frame.request_id,
              frame.request_id == last_request_id_
                  ? "duplicate request id"
                  : "request ids must be strictly increasing",
              /*fatal=*/true);
    return;
  }
  last_request_id_ = frame.request_id;

  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kPing: {
      if (!frame.payload.empty()) {
        SendError(frame.request_id, "PING carries no payload",
                  /*fatal=*/true);
        return;
      }
      Frame pong;
      pong.request_id = frame.request_id;
      pong.opcode = static_cast<uint8_t>(Opcode::kPong);
      AppendFrame(pong, &outbox_);
      return;
    }
    case Opcode::kSubscribe: {
      StatusOr<SubscribeRequest> request =
          DecodeSubscribePayload(frame.payload);
      if (!request.ok()) {
        SendError(frame.request_id, request.status().message(),
                  /*fatal=*/true);
        return;
      }
      StatusOr<SubscribeAck> ack = sink_->OnSubscribe(id_, request.value());
      if (!ack.ok()) {
        SendError(frame.request_id, ack.status().message(),
                  /*fatal=*/false);
        return;
      }
      Frame reply;
      reply.request_id = frame.request_id;
      reply.opcode = static_cast<uint8_t>(Opcode::kSubscribeAck);
      reply.payload = EncodeSubscribeAckPayload(ack.value());
      AppendFrame(reply, &outbox_);
      return;
    }
    case Opcode::kUnsubscribe: {
      StatusOr<uint64_t> sub_id = DecodeSubIdPayload(frame.payload);
      if (!sub_id.ok()) {
        SendError(frame.request_id, sub_id.status().message(),
                  /*fatal=*/true);
        return;
      }
      const Status status = sink_->OnUnsubscribe(id_, sub_id.value());
      if (!status.ok()) {
        SendError(frame.request_id, status.message(), /*fatal=*/false);
        return;
      }
      Frame reply;
      reply.request_id = frame.request_id;
      reply.opcode = static_cast<uint8_t>(Opcode::kUnsubscribeAck);
      reply.payload = EncodeSubIdPayload(sub_id.value());
      AppendFrame(reply, &outbox_);
      return;
    }
    default:
      SendError(frame.request_id, "unknown opcode", /*fatal=*/true);
      return;
  }
}

void Session::PushAnswer(const AnswerPush& answer) {
  if (dead_ || closing_) return;
  Frame frame;
  frame.request_id = 0;  // server-initiated
  frame.opcode = static_cast<uint8_t>(Opcode::kAnswer);
  frame.payload = EncodeAnswerPayload(answer);
  AppendFrame(frame, &outbox_);
}

void Session::SendError(uint64_t request_id, const std::string& message,
                        bool fatal) {
  Frame frame;
  frame.request_id = request_id;
  frame.opcode = static_cast<uint8_t>(Opcode::kError);
  frame.payload = EncodeErrorPayload(message);
  AppendFrame(frame, &outbox_);
  if (fatal) closing_ = true;
}

void Session::ConsumeOutput(size_t n) {
  WSNQ_CHECK_LE(n, output_size());
  consumed_ += n;
  if (consumed_ == outbox_.size()) {
    outbox_.clear();  // drained: keep the capacity, restart at offset 0
    consumed_ = 0;
  } else if (consumed_ > outbox_.size() / 2) {
    // Compact once the written prefix dominates: the move copies fewer
    // bytes than were consumed since the last compaction.
    outbox_.erase(outbox_.begin(),
                  outbox_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

}  // namespace serve
}  // namespace wsnq
