// wsnq-lint corpus: layering negatives — mc may include every layer it
// checks (core, algo, fault, net, util) plus itself, with no diagnostics.
// NOT compiled.

#include "algo/registry.h"
#include "core/scenario.h"
#include "fault/fault_plan.h"
#include "mc/mc.h"
#include "net/network.h"
#include "util/status.h"

namespace corpus {
int LegalIncludesFixtureMc() { return 0; }
}  // namespace corpus
