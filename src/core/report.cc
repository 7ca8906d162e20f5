#include "core/report.h"

#include <cstdio>

#include "algo/registry.h"
#include "util/status.h"
#include "util/trace.h"

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

MetricsCsv::~MetricsCsv() {
  if (out_ != nullptr) std::fclose(out_);
}

bool MetricsCsv::Open(const std::string& path) {
  if (path.empty()) return true;
  out_ = std::fopen(path.c_str(), "w");
  if (out_ == nullptr) {
    std::fprintf(stderr, "cannot open --metrics=%s\n", path.c_str());
    return false;
  }
  PrintMetricsCsvHeader(out_);
  return true;
}

void MetricsCsv::AddRows(const std::string& figure,
                         const std::string& dataset,
                         const std::string& x_name,
                         const std::string& x_value,
                         const AlgorithmAggregate& aggregate) {
  if (out_ == nullptr) return;
  PrintMetricsCsvRows(out_, figure, dataset, x_name, x_value, aggregate);
}

int FinishObservability(int code, const std::string& profile_path) {
  const Status trace_status = trace::FlushGlobalSink();
  if (!trace_status.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 trace_status.ToString().c_str());
    if (code == 0) code = 1;
  }
  prof::ReportToStderr();
  if (!profile_path.empty() && profile_path != "true") {
    const Status profile_status = prof::WriteJson(profile_path);
    if (!profile_status.ok()) {
      std::fprintf(stderr, "profile write failed: %s\n",
                   profile_status.ToString().c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

void PrintTimingFooter(const std::string& figure, int threads, int runs,
                       double wall_seconds) {
  std::fprintf(stderr, "# timing figure=%s threads=%d runs=%d wall_s=%.3f\n",
               figure.c_str(), threads, runs, wall_seconds);
}

}  // namespace wsnq
