// Bring-your-own-data workflow: export a trace to CSV (here a synthetic
// one standing in for your deployment logs), read it back through the
// trace-I/O substrate, build a network over SOM-derived positions, and run
// a continuous median query on it.
//
//   ./build/examples/custom_trace [trace.csv]

#include <cstdio>
#include <string>
#include <vector>

#include "algo/iq.h"
#include "algo/oracle.h"
#include "data/som.h"
#include "data/synthetic_trace.h"
#include "data/trace_io.h"
#include "net/network.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  const std::string trace_path =
      argc > 1 ? argv[1] : "/tmp/wsnq_custom_trace.csv";

  // 1. Produce a CSV trace (skip this step if you already have one).
  {
    Rng rng(17);
    std::vector<Point2D> positions;
    for (int i = 0; i < 120; ++i) {
      positions.push_back({rng.UniformDouble(), rng.UniformDouble()});
    }
    SyntheticTrace::Options options;
    options.period_rounds = 60;
    options.noise_percent = 8;
    const SyntheticTrace trace(std::move(positions), options);
    const Status written = WriteTraceCsv(trace, 80, trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%d sensors, 81 rounds)\n", trace_path.c_str(),
                trace.num_sensors());
  }

  // 2. Load it back — from here on, everything works off the file.
  StatusOr<InMemoryValueSource> loaded = ReadTraceCsv(trace_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const InMemoryValueSource& source = loaded.value();

  // 3. Lay the sensors out with a SOM over their first measurements (the
  // paper's recipe for datasets without coordinates, §5.1.3) and build the
  // network. Station 0 doubles as the sink.
  std::vector<double> features(static_cast<size_t>(source.num_sensors()));
  for (int i = 0; i < source.num_sensors(); ++i) {
    features[static_cast<size_t>(i)] =
        static_cast<double>(source.Value(i, 0));
  }
  SelfOrganizingMap som(features, {});
  const auto points = som.PlaceStations(features, 200.0, 200.0);
  auto net_or =
      Network::Create(RadioGraph(points, 45.0), /*root=*/0, EnergyModel{},
                      Packetizer{});
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  Network net = std::move(net_or).value();

  // 4. Continuous median over the file-backed measurements. Vertex v != 0
  // reads stream v (stream 0, the sink's, goes unused).
  const int64_t n = net.num_sensors();
  const int64_t k = n / 2;
  IqProtocol iq(k, source.range_min(), source.range_max(), WireFormat{},
                {});
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  int errors = 0;
  for (int64_t round = 0; round < source.rounds(); ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = source.Value(v, round);
    }
    net.BeginRound();
    iq.RunRound(&net, values, round);
    errors += iq.quantile() != OracleKth(SensorValues(net, values), k);
  }
  std::printf(
      "ran %lld rounds of IQ over the file-backed trace: median=%lld, "
      "oracle errors=%d, hotspot total=%.3f mJ\n",
      static_cast<long long>(source.rounds()),
      static_cast<long long>(iq.quantile()), errors,
      net.MaxTotalEnergyOverSensors());
  return errors == 0 ? 0 : 1;
}
