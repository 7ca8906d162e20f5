// wsnq-lint corpus: raw-getenv. Environment reads outside
// src/util/env.cc scatter knobs the env.h header does not list. NOT
// compiled.

#include <cstdlib>

int Threads() {
  const char* raw = std::getenv("WSNQ_THREADS");  // lint-expect: raw-getenv
  return raw != nullptr ? 1 : 0;
}

bool Secure() {
  return ::secure_getenv("HOME") != nullptr;  // lint-expect: raw-getenv
}

// Negatives: the helper itself, prose, and strings never fire.
int Runs() { return PositiveIntFromEnv("WSNQ_RUNS", 20); }
bool Update() { return GetEnv("WSNQ_UPDATE_GOLDEN").has_value(); }
const char* kHint = "do not call getenv(name) here";  // getenv(x) in prose
