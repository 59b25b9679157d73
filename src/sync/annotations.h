// Clang Thread Safety Analysis macros — the compile-time half of the
// thread-safety wall.
//
// Every DAR_* macro wraps one Clang TSA attribute and expands to nothing
// under any other compiler, so the annotations are free documentation for
// GCC builds and become machine-checked invariants under the CI lane that
// compiles src/ with `clang++ -Wthread-safety -Werror=thread-safety`
// (option DAR_THREAD_SAFETY in the top-level CMakeLists).
//
// Usage, in one glance:
//
//   sync::Mutex mu_{sync::Rank::kBatcher, "serve.batcher"};
//   int64_t count_ DAR_GUARDED_BY(mu_);             // field needs mu_ held
//   Entry* table_ DAR_PT_GUARDED_BY(mu_);           // *table_ needs mu_
//   void FlushLocked() DAR_REQUIRES(mu_);           // caller holds mu_
//   void Flush() DAR_EXCLUDES(mu_);                 // caller must NOT hold
//
// The analysis is flow-sensitive but intraprocedural: a helper that
// touches guarded state must carry DAR_REQUIRES so its callers are checked
// at their call sites. Lambdas cannot be annotated — code that waits on a
// condition writes an explicit `while (!pred) cv.Wait(mu)` loop instead of
// a predicate overload (see sync::CondVar). DAR_NO_THREAD_SAFETY_ANALYSIS
// is the escape hatch for the few functions whose safety argument lives
// outside the lock set (e.g. TraceCollector::AdoptBatch reads a collector
// owned exclusively by the calling thread); each use must say why.
#ifndef DAR_SYNC_ANNOTATIONS_H_
#define DAR_SYNC_ANNOTATIONS_H_

#if defined(__clang__)
#define DAR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DAR_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex" names the kind in
/// diagnostics). sync::Mutex is the only holder in this repository.
#define DAR_CAPABILITY(x) DAR_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability (sync::MutexLock).
#define DAR_SCOPED_CAPABILITY DAR_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written with the named mutex held.
#define DAR_GUARDED_BY(x) DAR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* may only be accessed with the mutex held
/// (the pointer itself is unguarded).
#define DAR_PT_GUARDED_BY(x) DAR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function precondition: the caller already holds the named mutex(es).
#define DAR_REQUIRES(...) \
  DAR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the mutex(es) and returns with them held.
#define DAR_ACQUIRE(...) DAR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es) the caller held.
#define DAR_RELEASE(...) DAR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the mutex(es) iff it returns the given value.
#define DAR_TRY_ACQUIRE(...) \
  DAR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function precondition: the caller does NOT hold the mutex(es) — the
/// deadlock guard for public entry points of self-locking classes.
#define DAR_EXCLUDES(...) DAR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Accessor that returns a reference to the named capability.
#define DAR_RETURN_CAPABILITY(x) DAR_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's safety argument is documented at the use
/// site and cannot be expressed in the lock set.
#define DAR_NO_THREAD_SAFETY_ANALYSIS \
  DAR_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // DAR_SYNC_ANNOTATIONS_H_
