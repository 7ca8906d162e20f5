// Minimal --key=value command-line parsing for the tools and benches. No
// global registry: callers construct a FlagParser over argv and pull typed
// values out, so flag sets stay local to each binary.

#ifndef WSNQ_UTIL_FLAGS_H_
#define WSNQ_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace wsnq {

/// Parses "--key=value" and bare "--key" (=> "true") arguments.
class FlagParser {
 public:
  /// Consumes argv; non-flag arguments are collected as positional.
  FlagParser(int argc, const char* const* argv);

  /// True iff --name was present.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults. Malformed values return the default and
  /// record an error retrievable via errors().
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value);
  double GetDouble(const std::string& name, double default_value);
  bool GetBool(const std::string& name, bool default_value);

  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Flags present on the command line that were never queried; useful for
  /// catching typos after all Get* calls have run.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

/// Splits a comma-separated flag value ("IQ,TAG") into its fields, empty
/// ones included: "" gives {""} and "a,,b" gives {"a", "", "b"}.
std::vector<std::string> SplitCommas(const std::string& raw);

}  // namespace wsnq

#endif  // WSNQ_UTIL_FLAGS_H_
