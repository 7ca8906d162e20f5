// wsnq_bench_probe: the benchmark's host-speed reference (benchmark/README.md,
// "Host-speed correction"). It links no wsnq code, so no change to wsnq can
// move its numbers; only the host can.
//
//   wsnq_bench_probe                 prints "# ready" and exits: the spawn
//                                    cost of a program that does nothing
//   wsnq_bench_probe --threads=N     N threads run a fixed mix of integer
//                                    mixing and convergecasts over a random
//                                    tree; prints {"probe_s": wall seconds}
//
// benchmark/run.py scales set-up times by the first mode's time, and the
// simulator workloads' timings by the second's, each relative to the
// reference host.

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace {

int64_t MonotonicNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

/// Register-only integer work.
uint64_t Mixing(uint64_t seed) {
  uint64_t x = 0x9E3779B97F4A7C15ull ^ seed;
  uint64_t acc = 0;
  for (int i = 0; i < 50'000'000; ++i) {
    acc += XorShift(&x) * 0xBF58476D1CE4E5B9ull;
  }
  return acc;
}

/// Counting convergecasts over a random 64k-vertex tree: data-dependent
/// branches and scattered stores over ~1.5 MB, like a protocol wave.
uint64_t Convergecasts(uint64_t seed) {
  constexpr int kVertices = 1 << 16;
  uint64_t x = 0x2545F4914F6CDD1Dull ^ seed;
  std::vector<int> parent(kVertices, -1);
  std::vector<int64_t> value(kVertices);
  std::vector<int64_t> below(kVertices);
  for (int v = 1; v < kVertices; ++v) {
    parent[v] = static_cast<int>(XorShift(&x) % static_cast<uint64_t>(v));
  }
  for (int64_t& v : value) v = static_cast<int64_t>(XorShift(&x) % 1000000);
  uint64_t acc = 0;
  for (int wave = 0; wave < 750; ++wave) {
    const int64_t pivot = static_cast<int64_t>(XorShift(&x) % 1000000);
    for (int v = 0; v < kVertices; ++v) below[v] = value[v] < pivot ? 1 : 0;
    for (int v = kVertices - 1; v > 0; --v) below[parent[v]] += below[v];
    acc += static_cast<uint64_t>(below[0]);
    for (int v = 0; v < kVertices; v += 7) {
      const int64_t step = static_cast<int64_t>(XorShift(&x) % 1000);
      value[v] = (value[v] + step) % 1000000;
    }
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf("# ready\n");
    return 0;
  }
  int threads = 0;
  if (argc != 2 || std::sscanf(argv[1], "--threads=%d", &threads) != 1 ||
      threads < 1 || threads > 256) {
    std::fprintf(stderr, "usage: wsnq_bench_probe [--threads=N]\n");
    return 2;
  }
  std::vector<uint64_t> sinks(static_cast<size_t>(threads), 0);
  const int64_t start = MonotonicNs();
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sinks, t] {
        const uint64_t seed = static_cast<uint64_t>(t);
        sinks[static_cast<size_t>(t)] = Mixing(seed) ^ Convergecasts(seed);
      });
    }
  }
  const double seconds = static_cast<double>(MonotonicNs() - start) * 1e-9;
  uint64_t digest = 0;
  for (const uint64_t sink : sinks) digest ^= sink;
  // The digest keeps the work observable, so it cannot be optimised away.
  std::printf("{\"probe_s\":%.17g,\"digest\":%llu}\n", seconds,
              static_cast<unsigned long long>(digest));
  return 0;
}
