// wsnq-analyzer corpus: ban-perf-syscall — hardware-counter plumbing
// (perf_event_open, raw syscall(), the perf_event_attr struct) is banned
// tree-wide; profiles are wall clock only. The alias leg pins what the
// AST tier adds over the lint regex: a typedef'd attr struct is caught
// with no banned spelling at the use site. NOT compiled.

namespace corpus {

using Attr = perf_event_attr;  // expect-diag: ban-perf-syscall

long OpenCounterDirect() {
  perf_event_attr attr = {};  // expect-diag: ban-perf-syscall
  return perf_event_open(&attr, 0, -1, -1, 0);  // expect-diag: ban-perf-syscall
}

long OpenCounterAliased() {
  Attr attr = {};  // expect-diag: ban-perf-syscall
  return syscall(298, &attr, 0, -1, -1, 0);  // expect-diag: ban-perf-syscall
}

// Negatives: naming the syscall in prose or a diagnostic string is not a
// use, and a member *named* syscall is not the libc entry point.
const char* kHint = "counters come from perf_event_open(2)";
struct Gadget {
  int syscall = 0;
};
int ReadsField(const Gadget& g) { return g.syscall; }

}  // namespace corpus
