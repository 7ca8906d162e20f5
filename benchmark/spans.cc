#include "spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/check.h"

namespace wsnq {
namespace benchmark {

int64_t MonotonicNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  std::unique_ptr<FILE, int (*)(FILE*)> file(
      std::fopen("/proc/self/status", "r"), &std::fclose);
  char line[256];
  while (file != nullptr && std::fgets(line, sizeof(line), file.get())) {
    long long kb = 0;
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) return kb / 1024.0;
  }
  return 0.0;
}

int SpanRecorder::Intern(const std::string& name) {
  auto [it, fresh] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

int SpanRecorder::Begin(int name, int run, int64_t round) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.round = round;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start_ns = MonotonicNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::End(int index) {
  const int64_t now = MonotonicNs();
  WSNQ_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = now;
}

Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return Status::Internal("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"run\":%d,"
                 "\"round\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, names_[static_cast<size_t>(span.name)].c_str(),
                 span.parent, span.run, static_cast<long long>(span.round),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::ferror(file.get()) ? Status::Internal("write failed: " + path)
                                 : Status::Ok();
}

double CalibrateSpanCostNs() {
  constexpr int kBatch = 20000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    SpanRecorder scratch;
    const int name = scratch.Intern("calibrate");
    const int64_t start = MonotonicNs();
    for (int i = 0; i < kBatch; ++i) scratch.End(scratch.Begin(name));
    per_span.push_back(static_cast<double>(MonotonicNs() - start) / kBatch);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

}  // namespace benchmark
}  // namespace wsnq
