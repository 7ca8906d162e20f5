// Minimal JSON object builder for the one-line reports the benchmark
// programs print for benchmark/run.py. Doubles use "%.17g" so they
// round-trip exactly (run.py compares replay and pass values bit-for-bit).

#ifndef WSNQ_BENCHMARK_JSON_LINE_H_
#define WSNQ_BENCHMARK_JSON_LINE_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace wsnq {
namespace benchmark {

class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonLine& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  /// `value` must not need escaping (labels, field names, paths).
  JsonLine& Str(const std::string& key, const std::string& value) {
    std::string quoted(1, '"');
    quoted.append(value).push_back('"');
    return Raw(key, quoted);
  }
  /// `json` is already-serialized JSON (object, array, number).
  JsonLine& Raw(const std::string& key, const std::string& json) {
    body_.append(body_.empty() ? "\"" : ",\"").append(key).append("\":");
    body_.append(json);
    return *this;
  }
  std::string str() const {
    std::string out(1, '{');
    out.append(body_).push_back('}');
    return out;
  }

 private:
  std::string body_;
};

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_JSON_LINE_H_
