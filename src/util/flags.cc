#include "util/flags.h"

#include <cstdlib>

namespace wsnq {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_[arg.substr(2)] = "true";
    } else {
      flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  used_[name] = true;
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  used_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t default_value) {
  used_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const long long parsed = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("flag --" + name + " expects an integer, got '" +
                      it->second + "'");
    return default_value;
  }
  return parsed;
}

double FlagParser::GetDouble(const std::string& name, double default_value) {
  used_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("flag --" + name + " expects a number, got '" +
                      it->second + "'");
    return default_value;
  }
  return parsed;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) {
  used_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  errors_.push_back("flag --" + name + " expects true/false, got '" +
                    it->second + "'");
  return default_value;
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!used_.count(name)) unused.push_back(name);
  }
  return unused;
}

std::vector<std::string> SplitCommas(const std::string& raw) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= raw.size()) {
    const size_t comma = raw.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(raw.substr(start));
      break;
    }
    out.push_back(raw.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace wsnq
