// Fixture: every violation here carries an allow() comment, so the linter
// must exit 0 — this is the suppression-path self-test.
#include <mutex>
#include <thread>

namespace kspdg {

struct Foo {
  std::mutex mu;  // kspdg-lint: allow(raw-mutex)
};

inline void Spawn() {
  // kspdg-lint: allow(raw-thread) — previous-line form.
  std::thread t([] {});
  t.join();  // no std:: token on this line; nothing to allow
}

// kspdg-lint: allow(analysis-escape)
inline void Unchecked() NO_THREAD_SAFETY_ANALYSIS {}

}  // namespace kspdg
