// The serving subsystem end to end: field catalog determinism, broker
// subscription lifecycle, the coalescing contract (N identical
// subscriptions = ONE backend convergecast per round, metrics-asserted),
// the byte-identical answer contract across shard/thread counts, CLI flag
// validation, and an in-process loopback socket round trip through
// Server + Client.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "serve/broker.h"
#include "serve/client.h"
#include "serve/field_catalog.h"
#include "serve/serve_cli.h"
#include "serve/server.h"
#include "serve/sockets.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/trace.h"

namespace wsnq {
namespace serve {
namespace {

SimulationConfig BaseConfig() {
  SimulationConfig config;
  config.num_sensors = 32;
  config.seed = 7;
  return config;
}

BrokerOptions SmallBroker(int shards = 1, int threads = 1) {
  BrokerOptions options;
  options.base = BaseConfig();
  options.shards = shards;
  options.threads = threads;
  return options;
}

SubscribeRequest Sub(const std::string& field, uint32_t permille) {
  SubscribeRequest request;
  request.field = field;
  request.rank_permille = permille;
  return request;
}

// --- Field catalog --------------------------------------------------------

TEST(FieldCatalogTest, HashIsStableAndDiscriminating) {
  EXPECT_EQ(FieldHash("temperature"), FieldHash("temperature"));
  EXPECT_NE(FieldHash("temperature"), FieldHash("temperaturf"));
  // Pinned value: the hash is part of the cross-server contract (same
  // name -> same shard and workload everywhere), so drift must be loud.
  EXPECT_EQ(FieldHash(""), 14695981039346656037ull);
}

TEST(FieldCatalogTest, ResolveVariesWorkloadOnly) {
  const SimulationConfig base = BaseConfig();
  const SimulationConfig a = ResolveField(base, "field-a");
  const SimulationConfig b = ResolveField(base, "field-b");
  // Deployment slice identical -> one shared placement/tree in the cache.
  EXPECT_EQ(a.num_sensors, base.num_sensors);
  EXPECT_EQ(a.seed, base.seed);
  EXPECT_EQ(a.num_sensors, b.num_sensors);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.radio_range, b.radio_range);
  // Workload slice differs -> distinct measurement streams.
  EXPECT_TRUE(a.synthetic.period_rounds != b.synthetic.period_rounds ||
              a.synthetic.noise_percent != b.synthetic.noise_percent ||
              a.synthetic.amplitude_fraction !=
                  b.synthetic.amplitude_fraction);
  // Resolution is a pure function.
  const SimulationConfig a2 = ResolveField(base, "field-a");
  EXPECT_EQ(a.synthetic.period_rounds, a2.synthetic.period_rounds);
  EXPECT_EQ(a.synthetic.noise_percent, a2.synthetic.noise_percent);
}

// --- Broker lifecycle -----------------------------------------------------

TEST(BrokerTest, SubscribeResolvesPermilleToAbsoluteRank) {
  QuantileBroker broker(SmallBroker());
  auto median = broker.Subscribe(1, Sub("f", 500));
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median.value().rank, 16);  // 32 sensors
  auto low = broker.Subscribe(1, Sub("f", 1));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.value().rank, 1);  // clamped to the minimum
  auto high = broker.Subscribe(1, Sub("f", 1000));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.value().rank, 32);
  EXPECT_NE(median.value().sub_id, low.value().sub_id);
}

TEST(BrokerTest, MaxSubsIsEnforcedAndReleased) {
  BrokerOptions options = SmallBroker();
  options.max_subs = 2;
  QuantileBroker broker(options);
  auto a = broker.Subscribe(1, Sub("f", 500));
  auto b = broker.Subscribe(1, Sub("f", 600));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = broker.Subscribe(1, Sub("f", 700));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(broker.Unsubscribe(1, a.value().sub_id).ok());
  EXPECT_TRUE(broker.Subscribe(1, Sub("f", 700)).ok());
}

TEST(BrokerTest, UnsubscribeValidatesOwnershipAndExistence) {
  QuantileBroker broker(SmallBroker());
  auto ack = broker.Subscribe(1, Sub("f", 500));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(broker.Unsubscribe(2, ack.value().sub_id).code(),
            StatusCode::kNotFound);  // wrong session
  EXPECT_EQ(broker.Unsubscribe(1, 999).code(), StatusCode::kNotFound);
  EXPECT_TRUE(broker.Unsubscribe(1, ack.value().sub_id).ok());
  EXPECT_EQ(broker.Unsubscribe(1, ack.value().sub_id).code(),
            StatusCode::kNotFound);  // already gone
  EXPECT_EQ(broker.stats().streams, 0);  // last sub freed the stream
}

TEST(BrokerTest, DropSessionRemovesOnlyItsSubscriptions) {
  QuantileBroker broker(SmallBroker());
  ASSERT_TRUE(broker.Subscribe(1, Sub("shared", 500)).ok());
  ASSERT_TRUE(broker.Subscribe(1, Sub("mine", 400)).ok());
  ASSERT_TRUE(broker.Subscribe(2, Sub("shared", 500)).ok());
  broker.DropSession(1);
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.subs, 1);
  EXPECT_EQ(stats.streams, 1);  // "mine" retired with its last sub
  std::vector<AnswerEvent> events;
  ASSERT_TRUE(broker.AdvanceRound(&events).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session_id, 2);
}

TEST(BrokerTest, InvalidSubscriptionsAreRejected) {
  QuantileBroker broker(SmallBroker());
  EXPECT_FALSE(broker.Subscribe(1, Sub("", 500)).ok());
  EXPECT_FALSE(broker.Subscribe(1, Sub("f", 0)).ok());
  EXPECT_FALSE(broker.Subscribe(1, Sub("f", 1001)).ok());
  EXPECT_FALSE(
      broker.Subscribe(1, Sub(std::string(300, 'x'), 500)).ok());
  EXPECT_EQ(broker.stats().subs, 0);
}

// --- Coalescing (metrics-asserted) ----------------------------------------

TEST(BrokerCoalescingTest, IdenticalSubscriptionsShareOneConvergecast) {
  constexpr int kRounds = 6;
  constexpr int kDuplicates = 16;

  // Baseline: ONE subscription on the field.
  QuantileBroker solo(SmallBroker());
  ASSERT_TRUE(solo.Subscribe(1, Sub("f", 500)).ok());
  std::vector<AnswerEvent> events;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(solo.AdvanceRound(&events).ok());
  }
  const BrokerStats solo_stats = solo.stats();

  // N identical-rank subscriptions on the same field.
  QuantileBroker fleet(SmallBroker());
  for (int i = 0; i < kDuplicates; ++i) {
    ASSERT_TRUE(fleet.Subscribe(100 + i, Sub("f", 500)).ok());
  }
  events.clear();
  std::vector<AnswerEvent> fleet_events;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(fleet.AdvanceRound(&fleet_events).ok());
  }
  const BrokerStats fleet_stats = fleet.stats();

  // The backend ran exactly one stream-round per round...
  EXPECT_EQ(fleet_stats.backend_rounds, kRounds);
  // ...with exactly the convergecast cost of the single-subscription
  // baseline: duplicates are free at the sensor network.
  EXPECT_EQ(fleet_stats.convergecasts, solo_stats.convergecasts);
  EXPECT_GT(fleet_stats.convergecasts, 0);
  // Every subscriber still got every round's push.
  EXPECT_EQ(fleet_stats.pushes, int64_t{kRounds} * kDuplicates);
  ASSERT_EQ(fleet_events.size(), size_t{kRounds} * kDuplicates);
  // And all duplicates of a round carry the same value.
  for (int r = 0; r < kRounds; ++r) {
    const int64_t expected =
        fleet_events[static_cast<size_t>(r) * kDuplicates].answer.value;
    for (int i = 0; i < kDuplicates; ++i) {
      const AnswerEvent& event =
          fleet_events[static_cast<size_t>(r) * kDuplicates +
                       static_cast<size_t>(i)];
      EXPECT_EQ(event.answer.value, expected);
      EXPECT_EQ(event.answer.round, r);
    }
  }
}

TEST(BrokerCoalescingTest, DistinctRanksShareTheStream) {
  constexpr int kRounds = 4;
  QuantileBroker broker(SmallBroker());
  ASSERT_TRUE(broker.Subscribe(1, Sub("f", 250)).ok());
  ASSERT_TRUE(broker.Subscribe(1, Sub("f", 500)).ok());
  ASSERT_TRUE(broker.Subscribe(1, Sub("f", 750)).ok());
  std::vector<AnswerEvent> events;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(broker.AdvanceRound(&events).ok());
  }
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.streams, 1);
  EXPECT_EQ(stats.backend_rounds, kRounds);  // one MultiIQ pass per round
  EXPECT_EQ(stats.pushes, int64_t{kRounds} * 3);
}

// --- Exactness ------------------------------------------------------------

TEST(BrokerTest, AnswersAreExactOrderStatistics) {
  const BrokerOptions options = SmallBroker();
  QuantileBroker broker(options);
  auto a = broker.Subscribe(1, Sub("temp", 250));
  auto b = broker.Subscribe(1, Sub("temp", 500));
  auto c = broker.Subscribe(1, Sub("temp", 900));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());

  // An independent replica of the field's scenario (the cache makes the
  // construction bit-identical by construction).
  ScenarioCache cache;
  const SimulationConfig config = ResolveField(options.base, "temp");
  ASSERT_TRUE(cache.Prepare(config, 1).ok());
  StatusOr<Scenario> replica = cache.Build(config, 0);
  ASSERT_TRUE(replica.ok());

  std::vector<AnswerEvent> events;
  for (int r = 0; r < 5; ++r) {
    events.clear();
    ASSERT_TRUE(broker.AdvanceRound(&events).ok());
    ASSERT_EQ(events.size(), 3u);
    const std::vector<int64_t> sensor_values = SensorValues(
        *replica.value().network, replica.value().ValuesView(r));
    const std::map<uint64_t, int64_t> expected = {
        {a.value().sub_id, OracleKth(sensor_values, a.value().rank)},
        {b.value().sub_id, OracleKth(sensor_values, b.value().rank)},
        {c.value().sub_id, OracleKth(sensor_values, c.value().rank)},
    };
    for (const AnswerEvent& event : events) {
      EXPECT_EQ(event.answer.value, expected.at(event.answer.sub_id))
          << "round " << r << " sub " << event.answer.sub_id;
      EXPECT_EQ(event.answer.round, r);
    }
  }
}

// --- Byte-identical answers across shards and threads ---------------------

/// Runs a fixed subscription scenario (including a mid-run subscribe and
/// unsubscribe, which exercises protocol rebuilds) and returns the exact
/// encoded answer-payload byte stream.
std::vector<uint8_t> AnswerBytes(int shards, int threads) {
  QuantileBroker broker(SmallBroker(shards, threads));
  std::vector<uint64_t> subs;
  for (int i = 0; i < 12; ++i) {
    const std::string field = "field-" + std::to_string(i % 5);
    const uint32_t permille = static_cast<uint32_t>(83 * (i + 1) % 1000 + 1);
    auto ack = broker.Subscribe(1 + i % 3, Sub(field, permille));
    EXPECT_TRUE(ack.ok());
    subs.push_back(ack.value().sub_id);
  }
  std::vector<uint8_t> bytes;
  std::vector<AnswerEvent> events;
  for (int r = 0; r < 6; ++r) {
    if (r == 2) {
      // Rank-set change mid-run: rebuilds must not perturb the answers.
      EXPECT_TRUE(broker.Subscribe(9, Sub("field-1", 77)).ok());
    }
    if (r == 4) {
      EXPECT_TRUE(broker.Unsubscribe(1, subs[0]).ok());
    }
    events.clear();
    EXPECT_TRUE(broker.AdvanceRound(&events).ok());
    for (const AnswerEvent& event : events) {
      AppendU64(static_cast<uint64_t>(event.session_id), &bytes);
      const std::vector<uint8_t> payload = EncodeAnswerPayload(event.answer);
      bytes.insert(bytes.end(), payload.begin(), payload.end());
    }
  }
  return bytes;
}

TEST(BrokerDeterminismTest, AnswerBytesIdenticalAcrossShardsAndThreads) {
  const std::vector<uint8_t> reference = AnswerBytes(1, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(AnswerBytes(4, 1), reference) << "--shards=4 diverged";
  EXPECT_EQ(AnswerBytes(1, 8), reference) << "--threads=8 diverged";
  EXPECT_EQ(AnswerBytes(4, 8), reference)
      << "--shards=4 --threads=8 diverged";
  EXPECT_EQ(AnswerBytes(16, 4), reference)
      << "--shards=16 --threads=4 diverged";
}

// --- CLI validation -------------------------------------------------------

TEST(ServeCliTest, ServedFlagValidation) {
  ServedConfig config;
  ServedFlagPresence present;
  EXPECT_TRUE(ValidateServedFlags(config, present).ok());

  ServedConfig bad = config;
  bad.port = 70000;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());
  bad = config;
  bad.shards = 0;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());
  bad = config;
  bad.threads = 0;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());
  bad = config;
  bad.max_subs = 0;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());
  bad = config;
  bad.rounds_per_sec = 0.0;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());
  bad = config;
  bad.max_rounds = -1;
  EXPECT_FALSE(ValidateServedFlags(bad, present).ok());

  // threads > shards is only an error when both were explicitly given.
  ServedConfig idle = config;
  idle.shards = 2;
  idle.threads = 4;
  EXPECT_TRUE(ValidateServedFlags(idle, present).ok());
  ServedFlagPresence both;
  both.shards = true;
  both.threads = true;
  EXPECT_FALSE(ValidateServedFlags(idle, both).ok());
}

TEST(ServeCliTest, LoadgenFlagValidation) {
  LoadgenConfig config;
  config.port = 9190;
  LoadgenFlagPresence present;
  present.port = true;
  EXPECT_TRUE(ValidateLoadgenFlags(config, present).ok());

  LoadgenFlagPresence missing;
  EXPECT_FALSE(ValidateLoadgenFlags(config, missing).ok());

  LoadgenConfig bad = config;
  bad.subs = 0;
  EXPECT_FALSE(ValidateLoadgenFlags(bad, present).ok());
  bad = config;
  bad.connections = 0;
  EXPECT_FALSE(ValidateLoadgenFlags(bad, present).ok());
  bad = config;
  bad.subs = 4;
  bad.connections = 8;  // more connections than subscriptions
  EXPECT_FALSE(ValidateLoadgenFlags(bad, present).ok());
  bad = config;
  bad.fields = 0;
  EXPECT_FALSE(ValidateLoadgenFlags(bad, present).ok());
  bad = config;
  bad.rounds = 0;
  EXPECT_FALSE(ValidateLoadgenFlags(bad, present).ok());
}

// --- Session outbox -------------------------------------------------------

TEST(SessionOutboxTest, PartialConsumesReadBackTheConcatenatedFrames) {
  // A slow socket takes arbitrary prefixes of the outbox while pushes keep
  // arriving; the bytes written must be exactly the queued frames in order.
  Session session(/*id=*/1, /*sink=*/nullptr);
  Rng rng(17);
  std::vector<uint8_t> expected;
  std::vector<uint8_t> written;
  const auto write_prefix = [&](size_t n) {
    written.insert(written.end(), session.output_data(),
                   session.output_data() + n);
    session.ConsumeOutput(n);
  };
  for (int step = 0; step < 500; ++step) {
    const int64_t pushes = rng.UniformInt(0, 3);
    for (int64_t i = 0; i < pushes; ++i) {
      AnswerPush answer;
      answer.sub_id = static_cast<uint64_t>(step + 1);
      answer.round = step;
      answer.value = step * 7 - static_cast<int64_t>(i);
      session.PushAnswer(answer);
      Frame frame;
      frame.request_id = 0;
      frame.opcode = static_cast<uint8_t>(Opcode::kAnswer);
      frame.payload = EncodeAnswerPayload(answer);
      AppendFrame(frame, &expected);
    }
    write_prefix(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(session.output_size()))));
  }
  write_prefix(session.output_size());
  EXPECT_FALSE(session.has_output());
  EXPECT_EQ(written, expected);
}

// --- In-process loopback round trip ---------------------------------------

/// Interleaves the server loop and client pumps until `done` or timeout.
template <typename Done>
void DriveUntil(Server* server, const std::vector<Client*>& clients,
                Done done) {
  for (int iteration = 0; iteration < 2000 && !done(); ++iteration) {
    ASSERT_TRUE(PumpClients(clients, 2).ok());
    ASSERT_TRUE(server->PollOnce(2).ok());
  }
  EXPECT_TRUE(done()) << "loopback round trip timed out";
}

TEST(ServerSocketTest, SubscribeAckAndAnswerPushOverLoopback) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.broker = SmallBroker();
  Server server(options);
  ASSERT_TRUE(server.Listen().ok());
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  std::vector<Client*> clients = {&client};

  Frame frame;
  frame.request_id = 1;
  frame.opcode = static_cast<uint8_t>(Opcode::kSubscribe);
  frame.payload = EncodeSubscribePayload(Sub("press", 500));
  client.QueueFrame(frame);

  std::vector<Frame> received;
  DriveUntil(&server, clients, [&] {
    for (Frame& f : client.TakeFrames()) received.push_back(std::move(f));
    return !received.empty();
  });
  ASSERT_EQ(received.size(), 1u);
  ASSERT_EQ(received[0].opcode,
            static_cast<uint8_t>(Opcode::kSubscribeAck));
  const auto ack = DecodeSubscribeAckPayload(received[0].payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().rank, 16);

  // Tick two backend rounds; the client must see both pushes in order.
  received.clear();
  ASSERT_TRUE(server.TickRound().ok());
  ASSERT_TRUE(server.TickRound().ok());
  DriveUntil(&server, clients, [&] {
    for (Frame& f : client.TakeFrames()) received.push_back(std::move(f));
    return received.size() >= 2;
  });
  ASSERT_EQ(received.size(), 2u);
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].request_id, 0u);
    ASSERT_EQ(received[i].opcode, static_cast<uint8_t>(Opcode::kAnswer));
    const auto push = DecodeAnswerPayload(received[i].payload);
    ASSERT_TRUE(push.ok());
    EXPECT_EQ(push.value().sub_id, ack.value().sub_id);
    EXPECT_EQ(push.value().round, static_cast<int64_t>(i));
  }
  EXPECT_EQ(server.broker_stats().pushes, 2);
}

TEST(ServerSocketTest, MalformedClientIsDroppedWithoutBackendEffect) {
  ServerOptions options;
  options.port = 0;
  options.broker = SmallBroker();
  Server server(options);
  ASSERT_TRUE(server.Listen().ok());

  // Deliver a CRC-corrupted SUBSCRIBE through a raw socket (the Client
  // class re-frames, so it cannot produce corrupt bytes itself). The
  // server must close the connection silently and the broker must never
  // hear about it.
  StatusOr<int> raw = ConnectLoopback(server.port());
  ASSERT_TRUE(raw.ok());
  UniqueFd raw_fd(raw.value());
  Frame frame;
  frame.request_id = 1;
  frame.opcode = static_cast<uint8_t>(Opcode::kSubscribe);
  frame.payload = EncodeSubscribePayload(Sub("x", 500));
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes.back() ^= 0xFF;

  std::vector<Client*> none;
  DriveUntil(&server, none, [&] { return server.sessions() == 1; });
  int64_t written = 0;
  while (written < static_cast<int64_t>(bytes.size())) {
    StatusOr<int64_t> n =
        WriteFd(raw_fd.get(), bytes.data() + written,
                static_cast<int64_t>(bytes.size()) - written);
    ASSERT_TRUE(n.ok());
    if (n.value() > 0) written += n.value();
  }
  DriveUntil(&server, none, [&] { return server.sessions() == 0; });
  EXPECT_EQ(server.broker_stats().subscribes, 0);
  EXPECT_EQ(server.stats().sessions_closed, 1);
  EXPECT_EQ(server.stats().protocol_closes, 1);
}

TEST(ServerSocketTest, AcceptErrorPausesTheListenerInsteadOfSpinning) {
  ServerOptions options;
  options.port = 0;
  options.broker = SmallBroker();
  Server server(options);
  ASSERT_TRUE(server.Listen().ok());
  StatusOr<int> raw = ConnectLoopback(server.port());
  ASSERT_TRUE(raw.ok());
  UniqueFd client_fd(raw.value());

  // dup returns the lowest free descriptor, so with the soft limit set to
  // it every descriptor below is taken and accept fails with EMFILE.
  rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = dup(client_fd.get());
  ASSERT_GE(lowest_free, 0);
  close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // The loopback connect completes quickly; poll until accept has failed,
  // then keep polling. A listener left in the poll set would stay readable
  // and return at once, failing accept on every call.
  for (int i = 0; i < 400 && server.stats().accept_errors == 0; ++i) {
    if (!server.PollOnce(5).ok()) break;
  }
  const int64_t first_errors = server.stats().accept_errors;
  const double start = prof::WallSeconds();
  bool polls_ok = true;
  for (int i = 0; i < 5; ++i) polls_ok = polls_ok && server.PollOnce(20).ok();
  const double waited = prof::WallSeconds() - start;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_TRUE(polls_ok);
  EXPECT_EQ(first_errors, 1);
  EXPECT_EQ(server.stats().accept_errors, 1);
  EXPECT_GE(waited, 0.09);  // every PollOnce waited out its timeout
  EXPECT_EQ(server.sessions(), 0);

  // The next round tick re-arms the listener, and with the limit restored
  // the queued connection is accepted.
  ASSERT_TRUE(server.TickRound().ok());
  std::vector<Client*> none;
  DriveUntil(&server, none, [&] { return server.sessions() == 1; });
  EXPECT_EQ(server.stats().accept_errors, 1);
}

TEST(ServerSocketTest, RunHonorsMaxRounds) {
  ServerOptions options;
  options.port = 0;
  options.rounds_per_sec = 500.0;
  options.max_rounds = 3;
  options.broker = SmallBroker();
  Server server(options);
  ASSERT_TRUE(server.Listen().ok());
  ASSERT_TRUE(server.Run(nullptr).ok());
  EXPECT_EQ(server.broker_stats().rounds, 3);
}

TEST(ClientTest, FramesWrittenJustBeforeThePeerClosesAreKept) {
  // The peer writes two ANSWER frames and closes before the client pumps,
  // so one Drain call reads both frames and the EOF.
  StatusOr<int> listener = ListenLoopback(0);
  ASSERT_TRUE(listener.ok());
  UniqueFd listen_fd(listener.value());
  StatusOr<int> port = BoundPort(listen_fd.get());
  ASSERT_TRUE(port.ok());
  Client client;
  ASSERT_TRUE(client.Connect(port.value()).ok());
  StatusOr<int> accepted = Status::NotFound("pending");
  for (int i = 0; i < 1000 && !accepted.ok(); ++i) {
    accepted = AcceptConnection(listen_fd.get());
  }
  ASSERT_TRUE(accepted.ok());
  {
    UniqueFd server_fd(accepted.value());
    std::vector<uint8_t> bytes;
    for (int64_t round = 0; round < 2; ++round) {
      Frame frame;
      frame.opcode = static_cast<uint8_t>(Opcode::kAnswer);
      frame.payload = EncodeAnswerPayload(AnswerPush{7, round, 100 + round});
      AppendFrame(frame, &bytes);
    }
    StatusOr<int64_t> written = WriteFd(
        server_fd.get(), bytes.data(), static_cast<int64_t>(bytes.size()));
    ASSERT_TRUE(written.ok());
    ASSERT_EQ(written.value(), static_cast<int64_t>(bytes.size()));
  }  // closes the server side

  std::vector<Client*> clients = {&client};
  for (int i = 0; i < 200 && !client.closed(); ++i) {
    ASSERT_TRUE(PumpClients(clients, 10).ok());
  }
  ASSERT_TRUE(client.closed());
  const std::vector<Frame> frames = client.TakeFrames();
  ASSERT_EQ(frames.size(), 2u);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].opcode, static_cast<uint8_t>(Opcode::kAnswer));
    const auto push = DecodeAnswerPayload(frames[i].payload);
    ASSERT_TRUE(push.ok());
    EXPECT_EQ(push.value().round, static_cast<int64_t>(i));
    EXPECT_EQ(push.value().value, 100 + static_cast<int64_t>(i));
  }
}

TEST(SocketsTest, ListenerResolvesEphemeralPortAndAccepts) {
  StatusOr<int> listener = ListenLoopback(0);
  ASSERT_TRUE(listener.ok());
  UniqueFd listen_fd(listener.value());
  StatusOr<int> port = BoundPort(listen_fd.get());
  ASSERT_TRUE(port.ok());
  EXPECT_GT(port.value(), 0);
  EXPECT_EQ(AcceptConnection(listen_fd.get()).status().code(),
            StatusCode::kNotFound);  // nothing pending yet

  StatusOr<int> conn = ConnectLoopback(port.value());
  ASSERT_TRUE(conn.ok());
  UniqueFd conn_fd(conn.value());
  // Loopback connects complete quickly; poll by retrying the accept.
  StatusOr<int> accepted = Status::NotFound("pending");
  for (int i = 0; i < 1000 && !accepted.ok(); ++i) {
    accepted = AcceptConnection(listen_fd.get());
  }
  ASSERT_TRUE(accepted.ok());
  UniqueFd accepted_fd(accepted.value());
  EXPECT_GE(accepted_fd.get(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace wsnq
