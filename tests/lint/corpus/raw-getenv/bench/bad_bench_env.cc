// wsnq-lint corpus: raw-getenv applies to bench/ harnesses too. NOT
// compiled.

#include <cstdlib>

double Baseline() {
  const char* raw = getenv("BASELINE");  // lint-expect: raw-getenv
  return raw != nullptr ? std::atof(raw) : 0.0;
}
