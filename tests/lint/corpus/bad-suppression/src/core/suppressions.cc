// wsnq-lint corpus: suppression mechanics. A suppression must name a
// real rule AND carry a non-empty justification; anything less is itself
// a finding (bad-suppression) and silences nothing. NOT compiled.

#include <thread>

namespace corpus {

void Justified() {
  // Valid suppression: silences raw-thread on its line, no finding.
  std::thread t;  // wsnq-lint: allow(raw-thread): corpus pins that justified suppressions are honored
  t.detach();
}

void Unjustified() {
  std::thread t;  // wsnq-lint: allow(raw-thread) // lint-expect: bad-suppression, raw-thread
  t.detach();
}

int UnknownRule() {
  return 0;  // wsnq-lint: allow(no-such-rule): rule must exist // lint-expect: bad-suppression
}

}  // namespace corpus
