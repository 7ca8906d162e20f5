#include "mc/schedule.h"

#include <cctype>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace wsnq {

int64_t SaturatingAdd(int64_t x, int64_t y) {
  WSNQ_DCHECK_GE(x, 0);
  WSNQ_DCHECK_GE(y, 0);
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (x > kMax - y) return kMax;
  return x + y;
}

int64_t SaturatingBinomial(int64_t n, int64_t k) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (k < 0 || n < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  int64_t result = 1;
  // result *= (n - k + i) / i stays integral at every step because any i
  // consecutive integers contain a multiple of every j <= i.
  for (int64_t i = 1; i <= k; ++i) {
    const int64_t factor = n - k + i;
    if (result > kMax / factor) return kMax;
    result = result * factor / i;
  }
  return result;
}

int64_t NaiveScheduleCount(int64_t frames, int max_drops) {
  int64_t total = 0;
  for (int j = 0; j <= max_drops; ++j) {
    total = SaturatingAdd(total, SaturatingBinomial(frames, j));
  }
  return total;
}

std::string ScheduleToString(const FaultSchedule& schedule) {
  std::string out = "drops=[";
  for (size_t i = 0; i < schedule.drops.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(schedule.drops[i]);
  }
  out += "] crash=";
  if (schedule.crash.none()) {
    out += "none";
  } else {
    out += "v" + std::to_string(schedule.crash.victim) + "@" +
           std::to_string(schedule.crash.crash_round) + "+" +
           std::to_string(schedule.crash.crash_len);
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string DoubleLiteral(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The largest whole number a double holds exactly (2^53).
constexpr double kMaxWhole = 9007199254740992.0;
constexpr double kIntMin = std::numeric_limits<int>::min();
constexpr double kIntMax = std::numeric_limits<int>::max();

/// Minimal parser for the flat repro objects ReproToJson emits: one level
/// of "key": value pairs where a value is a string, a number, a bool, or
/// an array of integers. No nesting, no escapes beyond \" \\ \n.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  Status Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key " + key);
      status = ParseValue(key);
      if (!status.ok()) return status;
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' after value of " + key);
    }
  }

  bool HasString(const std::string& key) const {
    for (const auto& kv : strings_)
      if (kv.first == key) return true;
    return false;
  }
  std::string GetString(const std::string& key) const {
    for (const auto& kv : strings_)
      if (kv.first == key) return kv.second;
    return "";
  }
  bool HasNumber(const std::string& key) const {
    for (const auto& kv : numbers_)
      if (kv.first == key) return true;
    return false;
  }
  double GetNumber(const std::string& key) const {
    for (const auto& kv : numbers_)
      if (kv.first == key) return kv.second;
    return 0.0;
  }
  bool HasArray(const std::string& key) const {
    for (const auto& kv : arrays_)
      if (kv.first == key) return true;
    return false;
  }
  std::vector<int64_t> GetArray(const std::string& key) const {
    for (const auto& kv : arrays_)
      if (kv.first == key) return kv.second;
    return {};
  }
  /// Every key seen, in document order (for unknown-key rejection).
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("repro JSON: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    SkipSpace();
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char escaped = text_[pos_++];
        c = escaped == 'n' ? '\n' : escaped;
      }
      *out += c;
    }
    if (!Consume('"')) return Error("unterminated string");
    return Status::Ok();
  }

  Status ParseNumber(double* out) {
    SkipSpace();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    *out = std::strtod(start, &end);
    if (end == start) return Error("expected a number");
    pos_ += static_cast<size_t>(end - start);
    return Status::Ok();
  }

  Status ParseValue(const std::string& key) {
    SkipSpace();
    keys_.push_back(key);
    if (pos_ >= text_.size()) return Error("truncated value");
    const char c = text_[pos_];
    if (c == '"') {
      std::string s;
      Status status = ParseString(&s);
      if (!status.ok()) return status;
      strings_.emplace_back(key, s);
      return Status::Ok();
    }
    if (c == '[') {
      ++pos_;
      std::vector<int64_t> items;
      SkipSpace();
      if (!Consume(']')) {
        while (true) {
          double v = 0.0;
          Status status = ParseNumber(&v);
          if (!status.ok()) return status;
          // Checked before the cast: out-of-range double -> int64 is UB.
          if (!(v >= 0.0 && v <= kMaxWhole) || v != std::floor(v)) {
            return Error("array " + key +
                         " holds a value that is not a whole number in "
                         "[0, 2^53]");
          }
          items.push_back(static_cast<int64_t>(v));
          SkipSpace();
          if (Consume(',')) continue;
          if (Consume(']')) break;
          return Error("expected ',' or ']' in array " + key);
        }
      }
      arrays_.emplace_back(key, items);
      return Status::Ok();
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      numbers_.emplace_back(key, 1.0);
      return Status::Ok();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      numbers_.emplace_back(key, 0.0);
      return Status::Ok();
    }
    double v = 0.0;
    Status status = ParseNumber(&v);
    if (!status.ok()) return status;
    numbers_.emplace_back(key, v);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::vector<int64_t>>> arrays_;
  std::vector<std::string> keys_;
};

/// Reads the optional whole-number field `key` into `*out`, checking that
/// it lies in [lo, hi] before the cast.
template <typename T>
Status ReadWhole(const FlatJsonParser& parser, const char* key, double lo,
                 double hi, T* out) {
  if (!parser.HasNumber(key)) return Status::Ok();
  const double v = parser.GetNumber(key);
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    return Status::InvalidArgument(
        std::string("repro JSON: \"") + key + "\" must be a whole number in [" +
        DoubleLiteral(lo) + ", " + DoubleLiteral(hi) + "]");
  }
  *out = static_cast<T>(v);
  return Status::Ok();
}


}  // namespace

Status ValidateMcOptions(const McOptions& options) {
  const auto whole = [](const char* name, int64_t v, int64_t lo,
                        int64_t hi) -> Status {
    if (v >= lo && v <= hi) return Status::Ok();
    return Status::InvalidArgument(
        std::string(name) + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got " + std::to_string(v));
  };
  const auto positive = [](const char* name, double v) -> Status {
    if (std::isfinite(v) && v > 0.0) return Status::Ok();
    return Status::InvalidArgument(std::string(name) +
                                   " must be positive and finite, got " +
                                   DoubleLiteral(v));
  };
  const auto within = [](const char* name, double v, double lo,
                         double hi) -> Status {
    if (v >= lo && v <= hi) return Status::Ok();
    return Status::InvalidArgument(
        std::string(name) + " must be in [" + DoubleLiteral(lo) + ", " +
        DoubleLiteral(hi) + "], got " + DoubleLiteral(v));
  };
  for (const Status& field : {
           whole("nodes", options.nodes, 2, kMcMaxNodes),
           whole("rounds", options.rounds, 1, kMcMaxRounds),
           positive("radio", options.radio_range),
           within("phi", options.phi, 0.0, 1.0),
           positive("period", options.period_rounds),
           within("noise", options.noise_percent, 0.0, 100.0),
           whole("max-retx", options.max_retx, 0, kMcMaxRetx),
           whole("max-drops", options.max_drops, 0, kIntMax),
           whole("max-crashes", options.max_crashes, 0, 1),
           whole("crash-max-drops", options.crash_max_drops, 0, kIntMax),
       }) {
    if (!field.ok()) return field;
  }
  if (options.seed > kMcMaxSeed) {
    return Status::InvalidArgument("seed must be at most 2^53, got " +
                                   std::to_string(options.seed));
  }
  for (const int64_t len : options.crash_lens) {
    Status in_range = whole("crash length", len, 0, kMcMaxRounds);
    if (!in_range.ok()) return in_range;
  }
  return Status::Ok();
}

std::string ReproToJson(const McRepro& repro) {
  std::string out = "{\n";
  out += "  \"invariant\": \"" + JsonEscape(repro.invariant) + "\",\n";
  out += std::string("  \"algo\": \"") + AlgorithmName(repro.algo) + "\",\n";
  out += "  \"nodes\": " + std::to_string(repro.options.nodes) + ",\n";
  out += "  \"radio\": " + DoubleLiteral(repro.options.radio_range) + ",\n";
  out += "  \"rounds\": " + std::to_string(repro.options.rounds) + ",\n";
  out += "  \"seed\": " + std::to_string(repro.options.seed) + ",\n";
  out += "  \"phi\": " + DoubleLiteral(repro.options.phi) + ",\n";
  out += "  \"period\": " + DoubleLiteral(repro.options.period_rounds) +
         ",\n";
  out += "  \"noise\": " + DoubleLiteral(repro.options.noise_percent) +
         ",\n";
  out += std::string("  \"arq\": ") + (repro.options.arq ? "true" : "false") +
         ",\n";
  out += "  \"max_retx\": " + std::to_string(repro.options.max_retx) + ",\n";
  out += "  \"drops\": [";
  for (size_t i = 0; i < repro.schedule.drops.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(repro.schedule.drops[i]);
  }
  out += "],\n";
  out += "  \"crash_victim\": " + std::to_string(repro.schedule.crash.victim) +
         ",\n";
  out += "  \"crash_round\": " +
         std::to_string(repro.schedule.crash.crash_round) + ",\n";
  out += "  \"crash_len\": " + std::to_string(repro.schedule.crash.crash_len) +
         ",\n";
  out += "  \"detail\": \"" + JsonEscape(repro.detail) + "\"\n";
  out += "}\n";
  return out;
}

StatusOr<McRepro> ReproFromJson(const std::string& json) {
  FlatJsonParser parser(json);
  Status status = parser.Parse();
  if (!status.ok()) return status;

  static const char* const kKnownKeys[] = {
      "invariant", "algo",   "nodes",        "radio",       "rounds",
      "seed",      "phi",    "period",       "noise",       "arq",
      "max_retx",  "drops",  "crash_victim", "crash_round", "crash_len",
      "detail"};
  for (const std::string& key : parser.keys()) {
    bool known = false;
    for (const char* candidate : kKnownKeys) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("repro JSON: unknown key \"" + key +
                                     "\"");
    }
  }

  McRepro repro;
  repro.invariant = parser.GetString("invariant");
  if (parser.HasString("algo")) {
    auto kind = ParseAlgorithmName(parser.GetString("algo").c_str());
    if (!kind.ok()) return kind.status();
    repro.algo = kind.value();
  }
  // Every whole number must fit its field's type before its cast; then the
  // options must pass the checker's own range check, the one wsnq_mc's
  // flags pass too (it also refuses non-finite reals).
  McOptions& options = repro.options;
  McCrashSpec& crash = repro.schedule.crash;
  for (const auto& [key, field] :
       {std::pair{"radio", &options.radio_range},
        std::pair{"phi", &options.phi},
        std::pair{"period", &options.period_rounds},
        std::pair{"noise", &options.noise_percent}}) {
    if (parser.HasNumber(key)) *field = parser.GetNumber(key);
  }
  for (const Status& field : {
           ReadWhole(parser, "nodes", kIntMin, kIntMax, &options.nodes),
           ReadWhole(parser, "rounds", kIntMin, kIntMax, &options.rounds),
           ReadWhole(parser, "seed", 0, kMaxWhole, &options.seed),
           ReadWhole(parser, "max_retx", kIntMin, kIntMax, &options.max_retx),
           ReadWhole(parser, "crash_round", 0, kMcMaxRounds,
                     &crash.crash_round),
           ReadWhole(parser, "crash_len", 0, kMcMaxRounds, &crash.crash_len),
       }) {
    if (!field.ok()) return field;
  }
  if (parser.HasNumber("arq")) {
    options.arq = parser.GetNumber("arq") != 0.0;
  }
  Status in_range = ValidateMcOptions(options);
  if (!in_range.ok()) {
    return Status::InvalidArgument("repro JSON: " + in_range.message());
  }
  // After "nodes": the victim is a label of this deployment, or -1 (none).
  Status victim = ReadWhole(parser, "crash_victim", -1, options.nodes - 1,
                            &crash.victim);
  if (!victim.ok()) return victim;
  repro.schedule.drops = parser.GetArray("drops");
  repro.detail = parser.GetString("detail");
  return repro;
}

}  // namespace wsnq
