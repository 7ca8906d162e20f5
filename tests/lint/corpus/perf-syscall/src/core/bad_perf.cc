// wsnq-lint corpus: perf-syscall. Hardware-counter plumbing is banned
// tree-wide; profiles are wall clock only. NOT compiled.

#include <linux/perf_event.h>  // lint-expect: perf-syscall

long CountCycles() {
  perf_event_attr attr = {};  // lint-expect: perf-syscall
  attr.config = PERF_COUNT_HW_CPU_CYCLES;  // lint-expect: perf-syscall
  long fd = perf_event_open_wrapper(&attr);  // lint-expect: perf-syscall
  ioctl(fd, PERF_EVENT_IOC_RESET, 0);  // lint-expect: perf-syscall
  return fd;
}

// Negative: prose mentioning the syscall in a comment or a log string
// must not fire.
// Counters come from perf_event_open under the hood.
const char* kHint = "see perf_event_open(2)";
