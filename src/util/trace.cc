#include "util/trace.h"

#include <atomic>
#include <chrono>  // the sanctioned wall-clock site (wsnq-lint: raw-clock)
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"

namespace wsnq {

namespace {

// printf-append helper shared by the trace serializers and the prof
// reporters below. Truncates one formatted chunk at 256 bytes; callers
// keep individual chunks well under that.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  WSNQ_CHECK_GE(n, 0);
  out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                       ? static_cast<size_t>(n)
                       : sizeof(buf) - 1);
}

}  // namespace

namespace trace {

namespace {

const char* KindName(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kBegin:
      return "begin";
    case Event::Kind::kEnd:
      return "end";
    case Event::Kind::kInstant:
      return "instant";
    case Event::Kind::kCounter:
      return "counter";
  }
  return "?";
}

const char* ChromePh(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kBegin:
      return "B";
    case Event::Kind::kEnd:
      return "E";
    case Event::Kind::kInstant:
      return "i";
    case Event::Kind::kCounter:
      return "C";
  }
  return "i";
}

thread_local TraceBuffer* t_current = nullptr;

std::unique_ptr<TraceSink> g_sink;  // main-thread lifecycle only

}  // namespace

void TraceBuffer::Push(Event::Kind kind, const char* phase, const char* name,
                       int node, std::initializer_list<Arg> args) {
  Event event;
  event.kind = kind;
  event.phase = phase;
  event.name = name;
  event.proto = proto_;
  event.run = run_;
  event.round = round_;
  event.node = node;
  event.tick = tick_++;
  for (const Arg& arg : args) {
    if (event.num_args >= Event::kMaxArgs) break;
    event.args[event.num_args++] = arg;
  }
  events_.push_back(event);
}

void TraceBuffer::Begin(const char* phase, const char* name, int node,
                        std::initializer_list<Arg> args) {
  Push(Event::Kind::kBegin, phase, name, node, args);
}

void TraceBuffer::End(const char* phase, const char* name, int node) {
  Push(Event::Kind::kEnd, phase, name, node, {});
}

void TraceBuffer::Instant(const char* phase, const char* name, int node,
                          std::initializer_list<Arg> args) {
  Push(Event::Kind::kInstant, phase, name, node, args);
}

void TraceBuffer::Counter(const char* name, int64_t value) {
  Push(Event::Kind::kCounter, "counter", name, -1, {{name, value}});
}

TraceBuffer* Current() { return t_current; }

RunScope::RunScope(TraceBuffer* buffer) : prev_(t_current) {
  t_current = buffer;
}

RunScope::~RunScope() { t_current = prev_; }

ScopedSpan::ScopedSpan(const char* phase, const char* name, int node,
                       std::initializer_list<Arg> args)
    : buffer_(t_current), phase_(phase), name_(name), node_(node) {
  if (buffer_ != nullptr) buffer_->Begin(phase_, name_, node_, args);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) buffer_->End(phase_, name_, node_);
}

void TraceSink::Fold(const TraceBuffer& buffer) {
  events_.reserve(events_.size() + buffer.events().size());
  for (Event event : buffer.events()) {
    event.tick += next_tick_;
    events_.push_back(event);
  }
  next_tick_ += buffer.ticks();
}

std::string TraceSink::SerializeJsonl() const {
  std::string out;
  out.reserve(events_.size() * 96);
  for (const Event& e : events_) {
    AppendF(&out,
            "{\"run\":%d,\"tick\":%lld,\"round\":%lld,\"proto\":\"%s\","
            "\"phase\":\"%s\",\"name\":\"%s\",\"node\":%d,\"kind\":\"%s\"",
            e.run, static_cast<long long>(e.tick),
            static_cast<long long>(e.round), e.proto, e.phase, e.name,
            e.node, KindName(e.kind));
    if (e.num_args > 0) {
      out += ",\"args\":{";
      for (int i = 0; i < e.num_args; ++i) {
        AppendF(&out, "%s\"%s\":%lld", i > 0 ? "," : "", e.args[i].key,
                static_cast<long long>(e.args[i].value));
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

std::string TraceSink::SerializeChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    // pid = run so Perfetto groups one run per process track; tid maps the
    // coordinator (node == -1) to 0 and vertex v to v + 1.
    AppendF(&out,
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%lld,"
            "\"pid\":%d,\"tid\":%d",
            e.name, e.phase, ChromePh(e.kind),
            static_cast<long long>(e.tick), e.run, e.node + 1);
    if (e.kind == Event::Kind::kInstant) out += ",\"s\":\"t\"";
    if (e.kind == Event::Kind::kCounter) {
      AppendF(&out, ",\"args\":{\"%s\":%lld}", e.args[0].key,
              static_cast<long long>(e.args[0].value));
    } else {
      AppendF(&out, ",\"args\":{\"proto\":\"%s\",\"round\":%lld", e.proto,
              static_cast<long long>(e.round));
      for (int a = 0; a < e.num_args; ++a) {
        AppendF(&out, ",\"%s\":%lld", e.args[a].key,
                static_cast<long long>(e.args[a].value));
      }
      out += "}";
    }
    out += i + 1 < events_.size() ? "},\n" : "}\n";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status TraceSink::WriteFile() const {
  const bool jsonl = path_.size() >= 6 &&
                     path_.compare(path_.size() - 6, 6, ".jsonl") == 0;
  const std::string body = jsonl ? SerializeJsonl() : SerializeChromeJson();
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path_);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::Internal("short write to trace file: " + path_);
  }
  return Status::Ok();
}

bool CompiledIn() {
#if defined(WSNQ_TRACING) && WSNQ_TRACING
  return true;
#else
  return false;
#endif
}

TraceSink* GlobalSink() { return g_sink.get(); }

void InstallGlobalSink(const std::string& path) {
  g_sink = std::make_unique<TraceSink>(path);
}

Status FlushGlobalSink() {
  if (g_sink == nullptr) return Status::Ok();
  // Flushing happens on the main thread after every run buffer has been
  // folded; entering the fold phase here is that claim, checked by clang.
  ScopedSerialPhase fold_phase(FoldPhase());
  Status status = g_sink->WriteFile();
  g_sink.reset();
  return status;
}

void ClearGlobalSink() { g_sink.reset(); }

}  // namespace trace

namespace prof {

namespace {

struct StageStat {
  int64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
};

std::atomic<bool> g_enabled{false};

/// Guards the profile's stage map (workers call AddSample concurrently).
Mutex& ProfileMu() {
  static Mutex mu;
  return mu;
}

/// The ProfileMu()-guarded stage accumulator: the REQUIRES annotation makes
/// every access point hold the mutex or fail the `analyze` build.
std::map<std::string, StageStat>& Stages() WSNQ_REQUIRES(ProfileMu()) {
  static std::map<std::string, StageStat> stages;
  return stages;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Enable() { g_enabled.store(true, std::memory_order_relaxed); }

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AddSample(const char* stage, double seconds) {
  MutexLock lock(ProfileMu());
  StageStat& stat = Stages()[stage];
  if (stat.count == 0 || seconds < stat.min_s) stat.min_s = seconds;
  if (stat.count == 0 || seconds > stat.max_s) stat.max_s = seconds;
  ++stat.count;
  stat.total_s += seconds;
}

std::vector<StageReport> Snapshot() {
  std::vector<StageReport> reports;
  MutexLock lock(ProfileMu());
  reports.reserve(Stages().size());
  for (const auto& [stage, stat] : Stages()) {
    StageReport report;
    report.stage = stage;
    report.count = stat.count;
    report.total_s = stat.total_s;
    report.min_s = stat.min_s;
    report.max_s = stat.max_s;
    reports.push_back(std::move(report));
  }
  return reports;  // std::map iteration: already sorted by stage
}

void ResetForTest() {
  MutexLock lock(ProfileMu());
  Stages().clear();
}

ScopedTimer::ScopedTimer(const char* stage)
    : stage_(stage), start_(Enabled() ? WallSeconds() : -1.0) {}

ScopedTimer::~ScopedTimer() {
  if (start_ < 0.0) return;
  AddSample(stage_, WallSeconds() - start_);
}

namespace {

/// Shared stderr/JSON field list; `sep` is " " for stderr key=value lines
/// and "," for JSON (where keys are quoted).
void AppendStageFields(std::string* out, const StageStat& stat, bool json) {
  const char* q = json ? "\"" : "";
  const char* kv = json ? "\":" : "=";
  const char* sep = json ? "," : " ";
  AppendF(out, "%s%scount%s%lld%s%stotal_s%s%.6f%s%smin_s%s%.6f%s%smax_s%s%.6f",
          sep, q, kv, static_cast<long long>(stat.count), sep, q, kv,
          stat.total_s, sep, q, kv, stat.min_s, sep, q, kv, stat.max_s);
}

}  // namespace

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  double mb = -1.0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void ReportToStderr() {
  MutexLock lock(ProfileMu());
  if (Stages().empty()) return;
  for (const auto& [stage, stat] : Stages()) {
    std::string line;
    AppendF(&line, "# profile stage=%s", stage.c_str());
    AppendStageFields(&line, stat, /*json=*/false);
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  const double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb >= 0.0) {
    std::fprintf(stderr, "# profile peak_rss_mb=%.1f\n", peak_rss_mb);
  }
}

Status WriteJson(const std::string& path) {
  std::string body = "{";
  const double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb >= 0.0) AppendF(&body, "\"peak_rss_mb\":%.1f,", peak_rss_mb);
  body += "\"stages\":[\n";
  {
    MutexLock lock(ProfileMu());
    bool first = true;
    for (const auto& [stage, stat] : Stages()) {
      AppendF(&body, "%s{\"stage\":\"%s\"", first ? "" : ",\n",
              stage.c_str());
      AppendStageFields(&body, stat, /*json=*/true);  // leads with ","
      body += "}";
      first = false;
    }
  }
  body += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open profile file: " + path);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::Internal("short write to profile file: " + path);
  }
  return Status::Ok();
}

}  // namespace prof
}  // namespace wsnq
