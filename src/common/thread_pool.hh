/**
 * @file
 * A small fixed-size worker pool: std::thread + a mutex-guarded task
 * queue, no external dependencies.
 *
 * This is the execution substrate for the parallel suite runner
 * (src/sim/parallel.hh): suite sweeps are embarrassingly parallel —
 * every (workload, config) cell is an independent deterministic
 * simulation — so a plain job pool buys near-linear speedup without
 * touching the simulation code.  The pool is deliberately minimal:
 * submit() fire-and-forget closures, wait for them with waitIdle(),
 * and the destructor drains and joins.  Anything fancier (futures,
 * work stealing, priorities) is left to callers.
 *
 * Locking contract: one LockRank::ThreadPool mutex guards the task
 * queue and the busy/stopping flags; it is a leaf lock — tasks run
 * with it released, so a task may take any other lock in the program.
 */

#ifndef CCM_COMMON_THREAD_POOL_HH
#define CCM_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hh"

namespace ccm
{

/**
 * Resolve a user-facing --jobs value: 0 means "one worker per
 * hardware thread" (with a sane fallback when the runtime cannot
 * report concurrency), anything else is taken literally.
 */
std::size_t resolveJobCount(std::size_t jobs);

/** Fixed-size worker pool over a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p workers threads (resolved via resolveJobCount, so 0 =
     * hardware concurrency).  The pool runs until destruction.
     */
    explicit ThreadPool(std::size_t workers);

    /** Drains remaining tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads actually running. */
    std::size_t workers() const { return threads.size(); }

    /**
     * Enqueue @p task for execution on some worker.  Tasks must not
     * throw — a task that lets an exception escape terminates the
     * process (catch and record failures inside the task; the suite
     * runner turns them into errored rows).
     */
    void submit(std::function<void()> task) CCM_EXCLUDES(mtx);

    /** Block until the queue is empty and every worker is idle. */
    void waitIdle() CCM_EXCLUDES(mtx);

  private:
    void workerLoop() CCM_EXCLUDES(mtx);

    std::vector<std::thread> threads;

    Mutex mtx{LockRank::ThreadPool, "thread-pool"};
    CondVar workAvailable; ///< workers wait here
    CondVar allDone;       ///< waitIdle waits here

    std::deque<std::function<void()>> queue CCM_GUARDED_BY(mtx);
    /** Tasks currently running. */
    std::size_t busy CCM_GUARDED_BY(mtx) = 0;
    bool stopping CCM_GUARDED_BY(mtx) = false;
};

/**
 * Run @p task(0) ... @p task(n - 1) on @p pool and wait for all of
 * them, or inline in index order when @p pool is null.
 */
template <typename Task>
void
forEachIndex(ThreadPool *pool, std::size_t n, Task &&task)
{
    if (pool == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        pool->submit([&task, i] { task(i); });
    pool->waitIdle();
}

} // namespace ccm

#endif // CCM_COMMON_THREAD_POOL_HH
