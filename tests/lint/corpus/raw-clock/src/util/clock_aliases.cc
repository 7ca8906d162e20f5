// wsnq-lint corpus: raw-clock must resolve aliases — `using Clock =
// std::chrono::steady_clock; Clock::now()` is caught even though no banned
// spelling appears at the call site, and so are the POSIX clock calls.
// NOT compiled; scanned by tools/wsnq_lint.py --selftest.

#include <chrono>
#include <ctime>

namespace corpus {

using Clock = std::chrono::steady_clock;
namespace krono = std::chrono;

long AliasedNow() {
  return Clock::now().time_since_epoch().count();  // lint-expect: raw-clock
}

long NamespaceAliasedNow() {
  return krono::system_clock::now().time_since_epoch().count();  // lint-expect: raw-clock
}

long PosixClock() {
  struct timespec ts {};
  clock_gettime(0, &ts);  // lint-expect: raw-clock
  return ts.tv_sec;
}

// Negatives: clock-ish names that are not clock reads stay quiet — the
// alias declaration itself (no ::now), and ordinary helper calls.
long WallSecondsLike() { return 0; }
long UsesHelper() { return WallSecondsLike(); }

}  // namespace corpus
