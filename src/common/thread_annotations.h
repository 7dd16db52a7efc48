// Clang thread-safety analysis annotations (no-ops on GCC and MSVC).
//
// The concurrency in this codebase is deliberately small — one hand-rolled
// pool (common::JobPool), the campaign progress callback, and single-owner
// controller state — which is exactly why it can be annotated exhaustively.
// Under Clang the library builds with `-Wthread-safety` promoted to an error
// (see GREENGPU_THREAD_SAFETY in the top-level CMakeLists.txt), so "which
// mutex guards this member" is a compile-time contract rather than a comment.
//
// Style follows the standard attribute set (abseil's thread_annotations.h):
//  * data members:      `T x_ GG_GUARDED_BY(mutex_);`
//  * private helpers:   `void drain() GG_REQUIRES(mutex_);`
//  * lock juggling the analysis cannot follow (std::unique_lock handed
//    across call boundaries, condition_variable re-acquisition):
//    `GG_NO_THREAD_SAFETY_ANALYSIS`, always with a comment saying why.
//
// Single-owner types (dividers, recorders, the event queue) are not locked;
// they use common::ThreadChecker (thread_checker.h) instead, which turns
// cross-thread misuse into a crash in debug/sanitizer builds.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define GG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GG_THREAD_ANNOTATION(x)
#endif

#define GG_CAPABILITY(x) GG_THREAD_ANNOTATION(capability(x))
#define GG_SCOPED_CAPABILITY GG_THREAD_ANNOTATION(scoped_lockable)
#define GG_GUARDED_BY(x) GG_THREAD_ANNOTATION(guarded_by(x))
#define GG_PT_GUARDED_BY(x) GG_THREAD_ANNOTATION(pt_guarded_by(x))
#define GG_REQUIRES(...) GG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GG_ACQUIRE(...) GG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GG_RELEASE(...) GG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GG_TRY_ACQUIRE(...) GG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GG_EXCLUDES(...) GG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GG_RETURN_CAPABILITY(x) GG_THREAD_ANNOTATION(lock_returned(x))
#define GG_NO_THREAD_SAFETY_ANALYSIS GG_THREAD_ANNOTATION(no_thread_safety_analysis)
