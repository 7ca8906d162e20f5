// Clang thread-safety-analysis attribute macros (docs/hardening.md,
// "Static analysis", "Thread-safety annotations").
//
// These annotations make the repo's locking and phase contracts visible to
// clang's -Wthread-safety analysis: every mutex-protected member names its
// mutex, every function that must (not) hold a capability says so, and the
// `analyze` preset turns violations into compile errors. Under GCC (and any
// compiler without the capability attributes) every macro expands to
// nothing, so the annotations cost nothing outside the analysis build.
//
// Vocabulary (the standard capability-era names, WSNQ_-prefixed):
//   WSNQ_CAPABILITY("mutex")   class declares a capability (wsnq::Mutex, or
//                              a phantom phase capability like
//                              FoldPhase())
//   WSNQ_SCOPED_CAPABILITY     RAII class that acquires/releases (MutexLock)
//   WSNQ_GUARDED_BY(mu)        member may only be touched holding mu
//   WSNQ_PT_GUARDED_BY(mu)     pointee may only be touched holding mu
//   WSNQ_REQUIRES(mu)          caller must hold mu exclusively
//   WSNQ_REQUIRES_SHARED(mu)   caller must hold mu at least shared
//   WSNQ_ACQUIRE/RELEASE(...)  function acquires/releases the capability
//   WSNQ_EXCLUDES(mu)          caller must NOT hold mu (deadlock guard)
//   WSNQ_ASSERT_CAPABILITY     function dynamically checks, then grants,
//                              the capability (runtime-checked phases)
//   WSNQ_RETURN_CAPABILITY(mu) function returns a reference to mu
//   WSNQ_NO_THREAD_SAFETY_ANALYSIS  opt a definition out (justify inline!)
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef WSNQ_UTIL_THREAD_ANNOTATIONS_H_
#define WSNQ_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define WSNQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define WSNQ_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

#define WSNQ_CAPABILITY(x) WSNQ_THREAD_ANNOTATION_(capability(x))
#define WSNQ_SCOPED_CAPABILITY WSNQ_THREAD_ANNOTATION_(scoped_lockable)

#define WSNQ_GUARDED_BY(x) WSNQ_THREAD_ANNOTATION_(guarded_by(x))
#define WSNQ_PT_GUARDED_BY(x) WSNQ_THREAD_ANNOTATION_(pt_guarded_by(x))

#define WSNQ_ACQUIRED_BEFORE(...) \
  WSNQ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define WSNQ_ACQUIRED_AFTER(...) \
  WSNQ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define WSNQ_REQUIRES(...) \
  WSNQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define WSNQ_REQUIRES_SHARED(...) \
  WSNQ_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define WSNQ_ACQUIRE(...) \
  WSNQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define WSNQ_ACQUIRE_SHARED(...) \
  WSNQ_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define WSNQ_RELEASE(...) \
  WSNQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define WSNQ_RELEASE_SHARED(...) \
  WSNQ_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define WSNQ_TRY_ACQUIRE(...) \
  WSNQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define WSNQ_TRY_ACQUIRE_SHARED(...) \
  WSNQ_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

#define WSNQ_EXCLUDES(...) WSNQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define WSNQ_ASSERT_CAPABILITY(x) \
  WSNQ_THREAD_ANNOTATION_(assert_capability(x))
#define WSNQ_ASSERT_SHARED_CAPABILITY(x) \
  WSNQ_THREAD_ANNOTATION_(assert_shared_capability(x))

#define WSNQ_RETURN_CAPABILITY(x) WSNQ_THREAD_ANNOTATION_(lock_returned(x))

#define WSNQ_NO_THREAD_SAFETY_ANALYSIS \
  WSNQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // WSNQ_UTIL_THREAD_ANNOTATIONS_H_
