#include "data/trace_io.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace wsnq {

InMemoryValueSource::InMemoryValueSource(
    std::vector<std::vector<int64_t>> rows, int64_t range_min,
    int64_t range_max)
    : rows_(std::move(rows)), range_min_(range_min), range_max_(range_max) {
  WSNQ_CHECK(!rows_.empty());
  WSNQ_CHECK(!rows_.front().empty());
  for (const auto& row : rows_) {
    WSNQ_CHECK_EQ(row.size(), rows_.front().size());
  }
  WSNQ_CHECK_LE(range_min_, range_max_);
}

int64_t InMemoryValueSource::Value(int sensor, int64_t round) const {
  WSNQ_CHECK_GE(round, 0);
  WSNQ_CHECK_LT(round, static_cast<int64_t>(rows_.size()));
  WSNQ_CHECK_GE(sensor, 0);
  WSNQ_CHECK_LT(sensor, num_sensors());
  return rows_[static_cast<size_t>(round)][static_cast<size_t>(sensor)];
}

Status WriteTraceCsv(const ValueSource& source, int64_t rounds,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "# wsnq-trace range_min=" << source.range_min()
      << " range_max=" << source.range_max() << "\n";
  out << "round";
  for (int i = 0; i < source.num_sensors(); ++i) out << ",s" << i;
  out << "\n";
  for (int64_t t = 0; t <= rounds; ++t) {
    out << t;
    for (int i = 0; i < source.num_sensors(); ++i) {
      out << ',' << source.Value(i, t);
    }
    out << "\n";
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

StatusOr<InMemoryValueSource> ReadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace: " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty trace file: " + path);
  }
  int64_t range_min = 0, range_max = 0;
  if (std::sscanf(line.c_str(),
                  "# wsnq-trace range_min=%" SCNd64 " range_max=%" SCNd64,
                  &range_min, &range_max) != 2) {
    return Status::InvalidArgument("missing wsnq-trace header: " + path);
  }
  if (range_min > range_max) {
    return Status::InvalidArgument("header range_min > range_max in " + path);
  }
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing column header: " + path);
  }

  std::vector<std::vector<int64_t>> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<int64_t> row;
    std::stringstream ss(line);
    std::string cell;
    bool first = true;
    while (std::getline(ss, cell, ',')) {
      if (first) {  // the round index column
        first = false;
        continue;
      }
      // The whole cell must be one in-range integer (trailing whitespace,
      // such as a CRLF line end, aside).
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(cell.c_str(), &end, 10);
      const bool overflow = errno == ERANGE;
      const bool no_digits = end == cell.c_str();
      while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) {
        ++end;
      }
      if (no_digits || *end != '\0') {
        return Status::InvalidArgument("bad cell '" + cell + "' in " + path);
      }
      if (overflow) {
        return Status::InvalidArgument("cell '" + cell +
                                       "' overflows int64 in " + path);
      }
      if (parsed < range_min || parsed > range_max) {
        return Status::InvalidArgument(
            "cell '" + cell + "' outside the header's range [" +
            std::to_string(range_min) + ", " + std::to_string(range_max) +
            "] in " + path);
      }
      row.push_back(parsed);
    }
    if (row.empty()) {
      return Status::InvalidArgument("row without values in " + path);
    }
    if (!rows.empty() && rows.front().size() != row.size()) {
      return Status::InvalidArgument("ragged rows in " + path);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("trace has no data rows: " + path);
  }
  return InMemoryValueSource(std::move(rows), range_min, range_max);
}

}  // namespace wsnq
