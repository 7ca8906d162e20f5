#include "serve/broker.h"

#include <algorithm>
#include <utility>

#include "serve/field_catalog.h"
#include "util/check.h"

namespace wsnq {
namespace serve {

QuantileBroker::QuantileBroker(const BrokerOptions& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  WSNQ_CHECK_GE(options_.shards, 1);
  shard_streams_.resize(static_cast<size_t>(options_.shards));
}

StatusOr<QuantileBroker::Stream*> QuantileBroker::GetOrCreateStream(
    const std::string& field) {
  auto it = streams_.find(field);
  if (it != streams_.end()) return it->second.get();

  const SimulationConfig config = ResolveField(options_.base, field);
  // Stream creation is serial (event-loop thread): the cache unseals,
  // builds whatever this field's config misses — typically only the
  // synthetic trace, since every field shares the base deployment — and
  // reseals before any parallel advance can read it.
  Status prepared = cache_.Prepare(config, 1);
  if (!prepared.ok()) return prepared;
  StatusOr<Scenario> scenario = cache_.Build(config, 0);
  if (!scenario.ok()) return scenario.status();

  auto stream = std::make_unique<Stream>();
  stream->field = field;
  stream->scenario = std::move(scenario).value();
  stream->shard =
      static_cast<int>(FieldHash(field) % static_cast<uint64_t>(
                           options_.shards));
  Stream* raw = stream.get();
  shard_streams_[static_cast<size_t>(raw->shard)].push_back(raw);
  streams_.emplace(field, std::move(stream));
  stats_.streams = static_cast<int64_t>(streams_.size());
  return raw;
}

StatusOr<SubscribeAck> QuantileBroker::Subscribe(
    int64_t session_id, const SubscribeRequest& request) {
  if (static_cast<int64_t>(subs_.size()) >= options_.max_subs) {
    return Status::FailedPrecondition(
        "subscription table full (--max-subs)");
  }
  if (request.field.empty() || request.field.size() > kMaxFieldBytes) {
    return Status::InvalidArgument("field name must be 1..255 bytes");
  }
  if (request.rank_permille < 1 || request.rank_permille > 1000) {
    return Status::InvalidArgument("rank must be in [1, 1000] permille");
  }
  StatusOr<Stream*> stream_or = GetOrCreateStream(request.field);
  if (!stream_or.ok()) return stream_or.status();
  Stream* stream = stream_or.value();

  const int64_t n = stream->scenario.network->num_sensors();
  const int64_t rank = std::clamp<int64_t>(
      (static_cast<int64_t>(request.rank_permille) * n + 500) / 1000, 1, n);
  if (++stream->rank_refs[rank] == 1) stream->ranks_dirty = true;

  const uint64_t sub_id = next_sub_id_++;
  subs_.emplace(sub_id, Subscription{session_id, stream, rank});
  ++stats_.subscribes;
  stats_.subs = static_cast<int64_t>(subs_.size());

  SubscribeAck ack;
  ack.sub_id = sub_id;
  ack.rank = rank;
  ack.round = round_;
  return ack;
}

Status QuantileBroker::Unsubscribe(int64_t session_id, uint64_t sub_id) {
  auto it = subs_.find(sub_id);
  if (it == subs_.end() || it->second.session_id != session_id) {
    return Status::NotFound("unknown subscription id");
  }
  Stream* stream = it->second.stream;
  const int64_t rank = it->second.rank;
  subs_.erase(it);
  ++stats_.unsubscribes;
  stats_.subs = static_cast<int64_t>(subs_.size());

  auto rank_it = stream->rank_refs.find(rank);
  WSNQ_CHECK(rank_it != stream->rank_refs.end());
  if (--rank_it->second == 0) {
    stream->rank_refs.erase(rank_it);
    stream->ranks_dirty = true;
  }
  if (stream->rank_refs.empty()) {
    // Retire the stream; bank its counters so stats() stays monotonic
    // across stream churn.
    stats_.convergecasts += stream->convergecasts;
    stats_.protocol_rebuilds += stream->rebuilds;
    auto& peers = shard_streams_[static_cast<size_t>(stream->shard)];
    peers.erase(std::find(peers.begin(), peers.end(), stream));
    streams_.erase(stream->field);
    stats_.streams = static_cast<int64_t>(streams_.size());
  }
  return Status::Ok();
}

void QuantileBroker::DropSession(int64_t session_id) {
  std::vector<uint64_t> owned;
  for (const auto& [sub_id, sub] : subs_) {
    if (sub.session_id == session_id) owned.push_back(sub_id);
  }
  for (const uint64_t sub_id : owned) {
    const Status status = Unsubscribe(session_id, sub_id);
    WSNQ_DCHECK(status.ok());
    (void)status;
  }
}

void QuantileBroker::AdvanceStream(Stream* stream) {
  if (stream->ranks_dirty) {
    stream->ranks.clear();
    stream->ranks.reserve(stream->rank_refs.size());
    for (const auto& [rank, refs] : stream->rank_refs) {
      stream->ranks.push_back(rank);
    }
    stream->protocol = std::make_unique<MultiIqProtocol>(
        stream->ranks, stream->scenario.source->range_min(),
        stream->scenario.source->range_max(), options_.base.wire);
    stream->local_round = 0;
    stream->ranks_dirty = false;
    ++stream->rebuilds;
  }
  Network* net = stream->scenario.network.get();
  net->BeginRound();
  // The value stream follows the broker round; the protocol's local round
  // only controls its initialize-on-0 behavior after a rebuild.
  stream->protocol->RunRound(net, stream->scenario.ValuesView(round_),
                             stream->local_round);
  ++stream->local_round;
  stream->convergecasts = net->total_convergecasts();
  stream->answers.resize(stream->ranks.size());
  for (size_t i = 0; i < stream->ranks.size(); ++i) {
    stream->answers[i] = stream->protocol->quantile(static_cast<int>(i));
  }
}

Status QuantileBroker::AdvanceRound(std::vector<AnswerEvent>* events) {
  // Fan the shards out: streams on distinct shards share no mutable
  // state (each owns its scenario, network, and protocol), so the only
  // cross-thread structure is the read-only shard index.
  const Status status = pool_->ParallelFor(
      options_.shards, [this](int64_t shard) {
        for (Stream* stream : shard_streams_[static_cast<size_t>(shard)]) {
          AdvanceStream(stream);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;

  // Fold on the calling thread in subscription-id order: the push
  // sequence is independent of shard count, thread count, and OS
  // scheduling (tests/serve_test.cc pins byte-identity).
  for (const auto& [sub_id, sub] : subs_) {
    const auto it = std::lower_bound(sub.stream->ranks.begin(),
                                     sub.stream->ranks.end(), sub.rank);
    WSNQ_DCHECK(it != sub.stream->ranks.end() && *it == sub.rank);
    const size_t index =
        static_cast<size_t>(it - sub.stream->ranks.begin());
    AnswerEvent event;
    event.session_id = sub.session_id;
    event.answer.sub_id = sub_id;
    event.answer.round = round_;
    event.answer.value = sub.stream->answers[index];
    events->push_back(event);
  }
  stats_.pushes += static_cast<int64_t>(subs_.size());
  stats_.backend_rounds += static_cast<int64_t>(streams_.size());
  ++round_;
  ++stats_.rounds;
  return Status::Ok();
}

BrokerStats QuantileBroker::stats() const {
  BrokerStats stats = stats_;
  for (const auto& [field, stream] : streams_) {
    stats.convergecasts += stream->convergecasts;
    stats.protocol_rebuilds += stream->rebuilds;
  }
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  return stats;
}

}  // namespace serve
}  // namespace wsnq
