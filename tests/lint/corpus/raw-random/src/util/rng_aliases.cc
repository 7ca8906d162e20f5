// wsnq-lint corpus: raw-random — sequential RNG types and calls,
// including through type aliases; plus negatives where `rand` is a field
// name and `Brand` merely contains the substring. NOT compiled.

#include <cstdlib>
#include <random>

namespace corpus {

using Gen = std::mt19937;  // lint-expect: raw-random

int AliasedEngine() {
  Gen gen(42);  // lint-expect: raw-random
  return static_cast<int>(gen());
}

int EntropySource() {
  std::random_device entropy;  // lint-expect: raw-random
  return static_cast<int>(entropy());
}

int LibcRand() {
  return rand();  // lint-expect: raw-random
}

// Negatives: a field *named* rand is not a call of ::rand(), and Brand()
// only contains the substring.
struct Config {
  int rand = 0;
};
int Brand() { return 7; }
int UsesNegatives() {
  Config c;
  return c.rand + Brand();
}

}  // namespace corpus
