// wsnq-lint corpus: layering — serve drives the stack but is not a
// verification layer: the model checker and the bench harness stay out of
// the daemon. NOT compiled.

#include "mc/mc.h"  // lint-expect: layering
#include "bench/bench_common.h"  // lint-expect: layering
#include "serve/broker.h"
#include "util/status.h"

namespace corpus {
int LayeringFixtureServe() { return 0; }
}  // namespace corpus
