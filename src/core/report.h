// Uniform tabular output for all benches: one header, one row per
// (x-value, algorithm), mirroring the series of the paper's figures.

#ifndef WSNQ_CORE_REPORT_H_
#define WSNQ_CORE_REPORT_H_

#include <cstdio>
#include <string>

#include "core/experiment.h"

namespace wsnq {

/// Prints the standard column header to stdout.
/// Columns: figure | dataset | x_name | x_value | algorithm |
///          max_energy_mJ | lifetime_rounds | packets | values |
///          refinements | errors | rank_err | max_rank_err.
void PrintReportHeader();

/// Prints one aggregate row.
void PrintReportRow(const std::string& figure, const std::string& dataset,
                    const std::string& x_name, const std::string& x_value,
                    const AlgorithmAggregate& aggregate);

/// Long-format metrics CSV (--metrics=out.csv): one row per metric in the
/// aggregate's folded registry. Columns:
///   figure,dataset,x_name,x_value,algo,metric,value
/// Keyed metrics flatten into the name ("depth_energy_mj[3]"); histogram
/// buckets appear as "uplink_payload_bits[pow2_7]" plus a "[count]" total.
void PrintMetricsCsvHeader(std::FILE* out);

/// Appends one CSV row per metric of `aggregate.metrics` (none when the
/// experiment ran without collect_metrics).
void PrintMetricsCsvRows(std::FILE* out, const std::string& figure,
                         const std::string& dataset,
                         const std::string& x_name,
                         const std::string& x_value,
                         const AlgorithmAggregate& aggregate);

/// Prints a wall-clock timing footer to stderr (stderr so that stdout
/// stays byte-identical across thread counts — the aggregate rows are
/// deterministic, the timing is not).
void PrintTimingFooter(const std::string& figure, int threads, int runs,
                       double wall_seconds);

}  // namespace wsnq

#endif  // WSNQ_CORE_REPORT_H_
