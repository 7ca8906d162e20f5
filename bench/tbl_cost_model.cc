// Cost-model table (§4.1 / [21]): the closed-form bucket count
// b_exact = exp(W((2 s_h + s_r) / (e s_b)) + 1) versus the true discrete
// optimum, across message geometries and universe sizes, with the cost
// penalty of using the approximation — and of POS's binary search (b = 2).

#include <cstdio>
#include <initializer_list>

#include "algo/cost_model.h"
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  // Closed-form table: --threads is accepted for CLI uniformity but no
  // simulation runs here, so there is no trace or metric to write either.
  SimulationConfig flag_sink;
  if (!bench::ParseCommonFlags(argc, argv, &flag_sink, bench::kProfileOnly)) {
    return 2;
  }
  {
    prof::ScopedTimer timer("cost_model/table");
    std::printf("%-10s %-6s %-6s %-10s %8s %6s %12s %12s %12s\n", "header_B",
                "s_r", "s_b", "universe", "b_exact", "b_opt", "cost_exact",
                "cost_opt", "cost_binary");
    for (int header_bytes : {8, 16, 32, 64}) {
      for (int64_t refinement_bits : {32, 48}) {
        for (int64_t bucket_bits : {8, 16, 32}) {
          for (int64_t universe : {int64_t{1} << 10, int64_t{1} << 16,
                                   int64_t{1} << 24}) {
            CostModelParams params;
            params.header_bits = header_bytes * 8;
            params.refinement_bits = refinement_bits;
            params.bucket_bits = bucket_bits;
            const int b_exact = RoundedBExact(params);
            const int b_opt = OptimalBuckets(params, universe);
            std::printf(
                "%-10d %-6lld %-6lld %-10lld %8d %6d %12.0f %12.0f %12.0f\n",
                header_bytes, static_cast<long long>(refinement_bits),
                static_cast<long long>(bucket_bits),
                static_cast<long long>(universe), b_exact, b_opt,
                BArySearchCostBits(params, b_exact, universe),
                BArySearchCostBits(params, b_opt, universe),
                BArySearchCostBits(params, 2, universe));
          }
        }
      }
    }
  }
  return bench::FinishObservability(0);
}
