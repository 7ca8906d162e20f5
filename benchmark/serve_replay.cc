#include "serve_replay.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "histogram.h"
#include "json_line.h"
#include "serve/broker.h"
#include "serve/wire.h"
#include "serve_workload.h"

namespace wsnq {
namespace benchmark {

StatusOr<std::string> RunServeReplay(const ServeReplayOptions& options,
                                     SpanRecorder* recorder) {
  StatusOr<std::vector<serve::SubscribeRequest>> loaded =
      LoadSubscriptions(options.subs_path);
  if (!loaded.ok()) return loaded.status();
  const std::vector<serve::SubscribeRequest>& subs = loaded.value();
  const int64_t n = static_cast<int64_t>(subs.size());

  SpanRecorder& rec = *recorder;
  const int pass_span = rec.Intern("pass");
  const int round_span = rec.Intern("round");
  const int subscribe_span = rec.Intern("serve.subscribe");
  const int advance_span = rec.Intern("serve.advance");
  const int encode_span = rec.Intern("serve.wire.encode");
  const int decode_span = rec.Intern("serve.wire.decode");
  const int rows_span = rec.Intern("data.oracle_rows");
  const int oracle_span = rec.Intern("algo.oracle");

  serve::BrokerOptions broker_options;
  broker_options.base = ServeBaseConfig(options.nodes, options.seed);
  broker_options.shards = options.shards;
  broker_options.threads = options.threads;
  serve::QuantileBroker broker(broker_options);
  FieldOracle oracle(broker_options.base);

  const size_t connections = static_cast<size_t>(options.connections);
  const int64_t per_round =
      (n + options.subscribe_rounds - 1) / options.subscribe_rounds;
  std::vector<int64_t> ranks(static_cast<size_t>(n), 0);
  std::set<std::pair<std::string, int64_t>> unique_ranks;
  std::vector<int64_t> pushed_value(static_cast<size_t>(n), 0);
  std::vector<int64_t> pushed_round(static_cast<size_t>(n), -1);
  std::vector<std::vector<uint8_t>> wire(connections);
  std::vector<serve::FrameReader> readers(connections);
  std::vector<serve::AnswerEvent> events;
  LatencyHistogram subscribe_hist;
  LatencyHistogram advance_hist;
  int64_t subscribed = 0;
  int64_t pushes = 0;
  int64_t expected_pushes = 0;
  int64_t checked = 0;
  int64_t wrong = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;

  const auto timed = [&rec](int span, int64_t round, auto&& body) {
    const int index = rec.Begin(span, -1, round);
    body();
    rec.End(index);
    const SpanRecorder::Span& s = rec.spans()[static_cast<size_t>(index)];
    return s.end_ns - s.start_ns;
  };

  const int64_t start_ns = MonotonicNs();
  {
    ScopedSpan pass(&rec, pass_span);
    for (int64_t round = 0; round < options.rounds; ++round) {
      ScopedSpan round_scope(&rec, round_span, -1, round);
      const int64_t batch_end = std::min(n, subscribed + per_round);
      for (; subscribed < batch_end; ++subscribed) {
        const serve::SubscribeRequest& request =
            subs[static_cast<size_t>(subscribed)];
        StatusOr<serve::SubscribeAck> ack = Status::Internal("unset");
        subscribe_hist.Record(timed(subscribe_span, round, [&] {
          ack = broker.Subscribe(
              static_cast<int64_t>(subscribed % options.connections) + 1,
              request);
        }));
        if (!ack.ok()) return ack.status();
        if (ack.value().sub_id != static_cast<uint64_t>(subscribed) + 1) {
          return Status::Internal("broker sub ids are not sequential");
        }
        ranks[static_cast<size_t>(subscribed)] = ack.value().rank;
        unique_ranks.emplace(request.field, ack.value().rank);
      }
      expected_pushes += subscribed;

      events.clear();
      Status advanced = Status::Ok();
      advance_hist.Record(timed(advance_span, round, [&] {
        advanced = broker.AdvanceRound(&events);
      }));
      if (!advanced.ok()) return advanced;

      encode_ns += timed(encode_span, round, [&] {
        for (const serve::AnswerEvent& event : events) {
          serve::Frame frame;
          frame.opcode = static_cast<uint8_t>(serve::Opcode::kAnswer);
          frame.payload = serve::EncodeAnswerPayload(event.answer);
          serve::AppendFrame(
              frame, &wire[static_cast<size_t>(event.session_id - 1)]);
        }
      });

      bool malformed = false;
      decode_ns += timed(decode_span, round, [&] {
        serve::Frame frame;
        for (size_t c = 0; c < connections; ++c) {
          readers[c].Feed(wire[c].data(), wire[c].size());
          wire[c].clear();
          while (readers[c].Next(&frame) == serve::ReadResult::kFrame) {
            StatusOr<serve::AnswerPush> push =
                serve::DecodeAnswerPayload(frame.payload);
            if (!push.ok() || push.value().sub_id < 1 ||
                push.value().sub_id > static_cast<uint64_t>(n)) {
              malformed = true;
              continue;
            }
            ++pushes;
            const size_t sub = static_cast<size_t>(push.value().sub_id - 1);
            pushed_value[sub] = push.value().value;
            pushed_round[sub] = push.value().round;
          }
          malformed = malformed || readers[c].malformed();
        }
      });
      if (malformed) return Status::Internal("replay decoded a bad frame");

      if (round % options.check_every != 0) continue;
      Status prepared = Status::Ok();
      timed(rows_span, round, [&] {
        for (const auto& [field, rank] : unique_ranks) {
          if (prepared.ok()) prepared = oracle.Prepare(field, round);
        }
      });
      if (!prepared.ok()) return prepared;
      timed(oracle_span, round, [&] {
        for (int64_t i = 0; i < subscribed; ++i) {
          const size_t sub = static_cast<size_t>(i);
          StatusOr<int64_t> want =
              oracle.Kth(subs[sub].field, round, ranks[sub]);
          ++checked;
          if (!want.ok() || pushed_round[sub] != round ||
              pushed_value[sub] != want.value()) {
            ++wrong;
          }
        }
      });
    }
  }
  const double wall_s = static_cast<double>(MonotonicNs() - start_ns) * 1e-9;

  const serve::BrokerStats stats = broker.stats();
  return JsonLine()
      .Num("wall_s", wall_s)
      .Int("spans", static_cast<int64_t>(rec.spans().size()))
      .Num("span_cost_ns", CalibrateSpanCostNs())
      .Int("rounds", options.rounds)
      .Int("subs", n)
      .Int("nodes", options.nodes)
      .Int("pushes", pushes)
      .Int("expected_pushes", expected_pushes)
      .Int("checked", checked)
      .Int("wrong", wrong)
      .Int("encode_ns", encode_ns)
      .Int("decode_ns", decode_ns)
      .Int("unique_ranks", static_cast<int64_t>(unique_ranks.size()))
      .Int("convergecasts", stats.convergecasts)
      .Int("backend_rounds", stats.backend_rounds)
      .Int("cache_hits", stats.cache_hits)
      .Int("cache_misses", stats.cache_misses)
      .Raw("subscribe_hist", subscribe_hist.ToJson())
      .Raw("advance_hist", advance_hist.ToJson())
      .str();
}

}  // namespace benchmark
}  // namespace wsnq
