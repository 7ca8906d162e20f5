// The process environment, read in one place. wsnq reads three variables,
// each an optional positive-integer override (unset, empty, or non-positive
// values fall back to the default):
//
//   WSNQ_THREADS  thread count used when a caller passes threads = 0
//                 (ThreadPool::DefaultThreadCount; default: hardware
//                 concurrency)
//   WSNQ_RUNS     runs per sweep point of the bench/ harnesses (RunsFromEnv)
//   WSNQ_ROUNDS   rounds per run of the bench/ harnesses (RoundsFromEnv)
//
// The golden tests also read WSNQ_UPDATE_GOLDEN, which rewrites
// tests/golden/ instead of comparing against it. A wsnq-lint rule confines
// raw environment reads to env.cc, so this list stays complete.

#ifndef WSNQ_UTIL_ENV_H_
#define WSNQ_UTIL_ENV_H_

#include <optional>
#include <string>

namespace wsnq {

/// The value of environment variable `name`, or nullopt when it is unset.
/// Read only from startup code or the main test thread: the C library's
/// environment read is not thread-safe against a concurrent setenv.
std::optional<std::string> GetEnv(const char* name);

/// `name` parsed as a positive integer (atoi rules), or `fallback` when the
/// variable is unset, empty, or does not parse to a value above zero.
int PositiveIntFromEnv(const char* name, int fallback);

}  // namespace wsnq

#endif  // WSNQ_UTIL_ENV_H_
