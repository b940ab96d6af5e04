/**
 * @file
 * Capability-annotated synchronization layer: the only place in the
 * repository allowed to name std::mutex or std::condition_variable
 * (enforced by the `ccm-lint` raw-primitive ban).
 *
 * Two machine-checked contracts ride on these wrappers:
 *
 *  1. **Clang Thread Safety Analysis.**  ccm::Mutex is a CAPABILITY,
 *     ccm::MutexLock is a SCOPED_CAPABILITY, and the
 *     CCM_GUARDED_BY / CCM_REQUIRES / CCM_EXCLUDES macros below put
 *     locking preconditions into function signatures.  Under Clang the
 *     strict build compiles with `-Werror=thread-safety-analysis`, so
 *     touching a guarded field without its mutex is a build break.  On
 *     GCC (and any compiler without the attributes) every macro
 *     expands to nothing — zero cost, identical code.
 *
 *  2. **Runtime lock-rank checking.**  Every Mutex carries a LockRank.
 *     When CCM_LOCK_RANK_CHECK is on (the default; see CMakeLists),
 *     each thread tracks the ranks it holds, and acquiring a mutex
 *     whose rank is <= the highest held rank is a ccm_fatal — the
 *     whole-program acquisition order is the ranks in ascending
 *     order, so any cycle (the deadlock precondition) trips the
 *     checker on the first inverted acquisition, deterministically,
 *     on any single test run.  docs/STATIC_ANALYSIS.md has the rank
 *     table and the conventions.
 *
 * Waiting on a CondVar releases the underlying mutex but *keeps its
 * rank held*: a blocked waiter acquires nothing, and on wakeup it
 * re-acquires the same mutex, so its ordering position is unchanged.
 */

#ifndef CCM_COMMON_SYNC_HH
#define CCM_COMMON_SYNC_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---- Clang Thread Safety Analysis attribute macros -----------------
//
// The part of the Clang thread-safety documentation's canonical macro
// set this repository uses, CCM_-prefixed.  GNU-style attributes so
// they can annotate lambdas (predicates passed to CondVar::wait are
// annotated `[&]() CCM_REQUIRES(mu) { ... }`).

#if defined(__clang__) && !defined(SWIG)
#define CCM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CCM_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Marks a class as a lockable capability ("mutex"). */
#define CCM_CAPABILITY(x) CCM_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires in ctor / releases in dtor. */
#define CCM_SCOPED_CAPABILITY CCM_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be touched while holding @p x. */
#define CCM_GUARDED_BY(x) CCM_THREAD_ANNOTATION(guarded_by(x))

/** Caller must hold the capability. */
#define CCM_REQUIRES(...) \
    CCM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capability and holds it on return. */
#define CCM_ACQUIRE(...) \
    CCM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability (held on entry). */
#define CCM_RELEASE(...) \
    CCM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns @p ... (bool). */
#define CCM_TRY_ACQUIRE(...) \
    CCM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (deadlock prevention). */
#define CCM_EXCLUDES(...) \
    CCM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Opt a function body out of the analysis (rare; justify inline). */
#define CCM_NO_THREAD_SAFETY_ANALYSIS \
    CCM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ccm
{

/**
 * The whole-program mutex acquisition order, ascending: a thread may
 * acquire a mutex only if its rank is strictly greater than every
 * rank it already holds.  Unranked mutexes opt out of the check (for
 * genuinely leaf, never-nested locks — prefer a rank).
 *
 * Keep this table in sync with docs/STATIC_ANALYSIS.md ("Concurrency
 * contracts"); gaps are deliberate so new locks can slot in between
 * existing layers without renumbering.
 */
enum class LockRank : int
{
    Unranked = 0,           ///< exempt from ordering checks
    ServeDaemon = 10,       ///< ServeDaemon::mu (admission/reports)
    ServeDaemonReaders = 20,///< ServeDaemon::readersMu (reader slots)
    ServeStream = 30,       ///< StreamPipeline::mu (state machine)
    ObsLive = 40,           ///< obs::LiveStatsCell (live snapshots)
    ServeQueue = 50,        ///< serve::RecordQueue (ring + condvars)
    ShardMerge = 75,        ///< runShardedClassify result merge
    ThreadPool = 80,        ///< ThreadPool task queue (leaf)
    ObsMetrics = 90,        ///< obs::MetricsRegistry (register/render)
    ObsSpans = 92,          ///< obs::SpanTracer event buffer (leaf)
};

/** True when this build enforces lock ranks (CCM_LOCK_RANK_CHECK). */
bool lockRankChecksEnabled();

namespace detail
{

/**
 * Record an acquisition of @p rank by this thread; ccm_fatal on a
 * rank inversion (<= any held rank).  Called *before* the underlying
 * lock is taken so the process dies pointing at the inversion instead
 * of deadlocking in it.  No-op for rank 0 or when checks are off.
 */
void noteLockAcquired(int rank, const char *name);

/** Forget one held acquisition of @p rank (reverse of the above). */
void noteLockReleased(int rank);

} // namespace detail

/**
 * Exclusive mutex capability.  Same cost as std::mutex outside the
 * optional rank bookkeeping; prefer the MutexLock RAII wrapper over
 * calling lock()/unlock() directly.
 */
class CCM_CAPABILITY("mutex") Mutex
{
  public:
    explicit Mutex(LockRank rank = LockRank::Unranked,
                   const char *name = "mutex")
        : rank_(static_cast<int>(rank)), name_(name)
    {
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() CCM_ACQUIRE()
    {
        detail::noteLockAcquired(rank_, name_);
        mu_.lock();
    }

    void
    unlock() CCM_RELEASE()
    {
        mu_.unlock();
        detail::noteLockReleased(rank_);
    }

    /** @return true iff the lock was taken (rank rules still apply). */
    bool
    tryLock() CCM_TRY_ACQUIRE(true)
    {
        detail::noteLockAcquired(rank_, name_);
        if (mu_.try_lock())
            return true;
        detail::noteLockReleased(rank_);
        return false;
    }

  private:
    friend class CondVar;

    std::mutex mu_;
    const int rank_;
    const char *name_;
};

/** RAII exclusive lock over a ccm::Mutex (scoped capability). */
class CCM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) CCM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() CCM_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable bound to ccm::Mutex.  Callers hold the mutex
 * (typically via MutexLock) and pass it explicitly, so the analysis
 * can see the precondition; predicates read guarded state and must be
 * annotated: `cv.wait(mu, [&]() CCM_REQUIRES(mu) { ... });`.
 *
 * Internally the wait adopts/releases the raw std::mutex, which the
 * analysis cannot follow — the bodies are CCM_NO_THREAD_SAFETY_ANALYSIS
 * and the contract is carried entirely by the REQUIRES signature.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void
    wait(Mutex &mu) CCM_REQUIRES(mu) CCM_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
        cv_.wait(ul);
        ul.release();
    }

    template <typename Pred>
    void
    wait(Mutex &mu, Pred pred)
        CCM_REQUIRES(mu) CCM_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
        cv_.wait(ul, std::move(pred));
        ul.release();
    }

    template <typename Rep, typename Period, typename Pred>
    bool
    waitFor(Mutex &mu,
            const std::chrono::duration<Rep, Period> &timeout,
            Pred pred) CCM_REQUIRES(mu) CCM_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
        const bool satisfied =
            cv_.wait_for(ul, timeout, std::move(pred));
        ul.release();
        return satisfied;
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace ccm

#endif // CCM_COMMON_SYNC_HH
