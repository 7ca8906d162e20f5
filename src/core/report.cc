#include "core/report.h"

#include <cstdio>

#include "algo/registry.h"

namespace wsnq {

void PrintReportHeader() {
  std::printf(
      "%-10s %-10s %-12s %-10s %-9s %14s %16s %10s %10s %12s %7s %9s "
      "%13s\n",
      "figure", "dataset", "x_name", "x_value", "algo", "max_energy_mJ",
      "lifetime_rounds", "packets", "values", "refinements", "errors",
      "rank_err", "max_rank_err");
}

void PrintReportRow(const std::string& figure, const std::string& dataset,
                    const std::string& x_name, const std::string& x_value,
                    const AlgorithmAggregate& aggregate) {
  std::printf(
      "%-10s %-10s %-12s %-10s %-9s %14.6f %16.1f %10.1f %10.1f %12.2f "
      "%7lld %9.3f %13lld\n",
      figure.c_str(), dataset.c_str(), x_name.c_str(), x_value.c_str(),
      aggregate.label.c_str(), aggregate.max_round_energy_mj.mean(),
      aggregate.lifetime_rounds.mean(), aggregate.packets.mean(),
      aggregate.values.mean(), aggregate.refinements.mean(),
      static_cast<long long>(aggregate.errors),
      aggregate.rank_error.mean(),
      static_cast<long long>(aggregate.max_rank_error));
}

void PrintMetricsCsvHeader(std::FILE* out) {
  std::fprintf(out, "figure,dataset,x_name,x_value,algo,metric,value\n");
}

void PrintMetricsCsvRows(std::FILE* out, const std::string& figure,
                         const std::string& dataset,
                         const std::string& x_name,
                         const std::string& x_value,
                         const AlgorithmAggregate& aggregate) {
  for (const MetricsRegistry::Row& row : aggregate.metrics.Rows()) {
    std::fprintf(out, "%s,%s,%s,%s,%s,%s,%.17g\n", figure.c_str(),
                 dataset.c_str(), x_name.c_str(), x_value.c_str(),
                 aggregate.label.c_str(), row.metric.c_str(), row.value);
  }
}

void PrintTimingFooter(const std::string& figure, int threads, int runs,
                       double wall_seconds) {
  std::fprintf(stderr, "# timing figure=%s threads=%d runs=%d wall_s=%.3f\n",
               figure.c_str(), threads, runs, wall_seconds);
}

}  // namespace wsnq
