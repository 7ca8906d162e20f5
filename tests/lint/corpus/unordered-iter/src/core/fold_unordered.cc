// wsnq-lint corpus: unordered-iter fires when hash order can reach
// output (fold/aggregate/report/export/serialize contexts) and stays
// quiet for lookups and non-output iteration; fp-reduction fires on
// floating-point accumulation in hash order regardless of context.
// NOT compiled.

#include <string>
#include <unordered_map>

namespace corpus {

std::unordered_map<int, double> g_totals;

using NodeIndex = std::unordered_map<int, int>;

double FoldTotals() {
  double sum = 0.0;
  for (const auto& kv : g_totals) {  // lint-expect: unordered-iter
    sum += kv.second;  // lint-expect: fp-reduction
  }
  return sum;
}

// fp-reduction needs no output-path context: a hash-order FP sum is wrong
// wherever its result ends up.
double AccumulateAnywhere() {
  double acc = 0.0;
  for (const auto& kv : g_totals) {
    acc += kv.second;  // lint-expect: fp-reduction
  }
  return acc;
}

class Exporter {
 public:
  // Member container declared below (alias-typed): decl-type tracking must
  // connect NodeIndex -> unordered_map.
  int ExportCount() {
    int last = 0;
    for (const auto& kv : index_) {  // lint-expect: unordered-iter
      last = kv.second;
    }
    return last;
  }

 private:
  NodeIndex index_;
};

// Negatives: point lookups are order-independent, and integer counting in
// a non-output context leaks nothing.
bool Contains(int key) { return g_totals.find(key) != g_totals.end(); }
int CountEntries() {
  int n = 0;
  for (const auto& kv : g_totals) {
    n += 1;
  }
  return n;
}

}  // namespace corpus
