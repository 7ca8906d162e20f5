// wsnq-lint corpus: layering — net is below core; an upward include
// inverts the DAG (util <- net <- ... <- core). NOT compiled.

#include "core/experiment.h"  // lint-expect: layering
#include "net/geometry.h"

namespace corpus {
int LayeringFixtureNet() { return 0; }
}  // namespace corpus
