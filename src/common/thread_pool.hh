/**
 * @file
 * The one way the program fans work out over threads: forEachIndex(n,
 * workers, task) runs task(0) ... task(n - 1) and returns when all of
 * them have.  Every parallel consumer goes through it — suite sweeps
 * (src/sim/parallel.hh), the sharded classifier's partition and shards
 * (src/sim/sharded.hh), the packed trace's open check, chunked trace
 * reads (mapChunks, src/trace/source.hh), the sample lane's window
 * replay and the figure benches — so none of them owns a pool.
 *
 * Underneath is a small fixed-size worker pool: std::thread + a
 * mutex-guarded task queue, no external dependencies.  forEachIndex
 * creates one for the call and joins it before returning: starting
 * and joining a few threads costs ~0.1 ms, against commands of tens
 * of milliseconds, so no pool outlives its call.
 *
 * Locking contract: one LockRank::ThreadPool mutex guards the task
 * queue and the busy/stopping flags; it is a leaf lock — tasks run
 * with it released, so a task may take any other lock in the program.
 */

#ifndef CCM_COMMON_THREAD_POOL_HH
#define CCM_COMMON_THREAD_POOL_HH

#include <algorithm>
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

/**
 * Fixed-size worker pool over a FIFO task queue.  The program makes
 * one only inside forEachIndex(); use that.
 */
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
 * Run @p task(0) ... @p task(n - 1) and wait for all of them.  With
 * min(n, resolveJobCount(workers)) <= 1 the tasks run inline on the
 * calling thread, in index order; otherwise on a pool of that many
 * workers, created and joined for this call.  Tasks must be
 * independent and must not throw (ThreadPool::submit).  Returning
 * publishes everything the tasks wrote to the calling thread.
 */
template <typename Task>
void
forEachIndex(std::size_t n, std::size_t workers, Task &&task)
{
    workers = std::min(n, resolveJobCount(workers));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&task, i] { task(i); });
    pool.waitIdle();
}

} // namespace ccm

#endif // CCM_COMMON_THREAD_POOL_HH
