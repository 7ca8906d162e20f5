// wsnq-lint corpus: the allowlisted environment helper may call getenv.
// No findings expected here. NOT compiled.

#include <cstdlib>

const char* Raw(const char* name) { return std::getenv(name); }
