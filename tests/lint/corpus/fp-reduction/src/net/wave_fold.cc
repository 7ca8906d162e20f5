// wsnq-lint corpus: the partial-wave fold path (net/wave.h) is an
// output path. Part replays and fold-vertex processing feed Network
// accounting directly — every energy debit and packet counter is emitted
// in the order the code walks its containers — so hash-order iteration or
// floating-point accumulation inside a wave/replay/convergecast context
// breaks the bit-identical contract (and, for FP sums, makes the result
// depend on the subtree partition). NOT compiled.

#include <unordered_map>
#include <vector>

namespace corpus {

std::unordered_map<int, double> g_subtree_energy;

// Replaying recorded sends in hash order would debit energy in a
// different sequence every run.
double ReplayWaveSends() {
  double debited = 0.0;
  for (const auto& kv : g_subtree_energy) {  // lint-expect: unordered-iter
    debited += kv.second;  // lint-expect: fp-reduction
  }
  return debited;
}

// Fold-vertex processing under the convergecast spelling: even an
// integer walk leaks hash order into whichever vertex is folded last.
int DrainConvergecastSteps() {
  int last = 0;
  for (const auto& kv : g_subtree_energy) {  // lint-expect: unordered-iter
    last = kv.first;
  }
  return last;
}

// Negative: a wave that folds from an ordered container (the WaveLane
// scratch pattern) is exactly the sanctioned shape.
double WaveFoldOrdered(const std::vector<double>& lane) {
  double sum = 0.0;
  for (double v : lane) sum += v;
  return sum;
}

// Negative: point lookups into wave state are order-independent even in
// a replay context.
bool ReplayHasVertex(int v) {
  return g_subtree_energy.find(v) != g_subtree_energy.end();
}

}  // namespace corpus
