// wsnq-analyzer corpus: layering negatives — serve sits on top of the
// simulation stack and may include core/algo/sketch/data/fault/net/util
// plus itself, with no diagnostics. NOT compiled.

#include "algo/multi_quantile.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "data/value_source.h"
#include "net/network.h"
#include "serve/wire.h"
#include "util/status.h"

namespace corpus {
int LegalIncludesFixtureServe() { return 0; }
}  // namespace corpus
