// wsnq-analyzer corpus: layering — core sits above algo/sketch/data/fault
// in the DAG and may never reach into bench (or tests/tools/examples).
// The model checker is also off-limits: it sits on top of the stack it
// checks, so core including mc/ would let the checker shape what it
// observes. NOT compiled.

#include "bench/bench_common.h"  // expect-diag: layering
#include "core/config.h"
#include "mc/mc.h"  // expect-diag: layering
#include "util/status.h"

namespace corpus {
int LayeringFixtureCore() { return 0; }
}  // namespace corpus
