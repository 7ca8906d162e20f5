// wsnq-lint corpus: raw-random. Sequential/OS randomness outside
// src/util/rng.* breaks seeded reproducibility. NOT compiled.

#include <random>

int Draw() {
  std::mt19937 gen(42);        // lint-expect: raw-random
  std::random_device entropy;  // lint-expect: raw-random
  (void)entropy;
  return rand();  // lint-expect: raw-random
}

// Negatives: identifiers that merely contain the banned tokens, and a
// banned name inside a block comment.
int Brand() { return 0; }
int strand_count = 0;

int Quiet() {
  /* std::mt19937 in a block comment */
  return 0;
}
