// Fixed-size worker pool with a blocking task queue plus a ParallelFor
// convenience for the embarrassingly parallel loops in this repository:
// fitting the trees of a random forest, sweeping profiling pressures, and
// evaluating scheduler candidates.
//
// Design notes (why not std::async / OpenMP):
//  * std::async gives no control over thread count and may serialize;
//  * the repo must build with no dependencies beyond the standard library;
//  * a single shared pool avoids oversubscription when nested code paths
//    (e.g. forest-fit inside a bench sweep) both want parallelism — inner
//    calls fall back to inline execution when invoked from a worker thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

namespace gaugur::common {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t NumThreads() const { return workers_.size(); }

  /// Shared-queue tasks currently enqueued but not yet picked up by a
  /// worker. The destructor drains the queue before joining and asserts
  /// this is zero. Mirrored into the obs registry as the
  /// "pool.queue_depth" gauge.
  std::size_t QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Pinned-queue counterpart of QueueDepth(): tasks submitted via
  /// SubmitPinned / SubmitNamed that no worker has dequeued yet, summed
  /// over all per-worker queues. Tracked separately from the shared
  /// queue (gauge "pool.pinned_queue_depth") because a backlog here
  /// means one specific worker is behind — affinity work cannot be
  /// stolen, so the shared-depth gauge alone would hide a stuck shard.
  /// Drains to zero by the time the destructor's joins return (asserted
  /// there).
  std::size_t PinnedQueueDepth() const {
    return pinned_depth_.load(std::memory_order_relaxed);
  }

  /// Total tasks this pool has finished executing ("pool.tasks_executed"
  /// counter in the obs registry).
  std::uint64_t TasksExecuted() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  /// Enqueue a task that only worker `worker` (< NumThreads()) may run.
  /// Pinned tasks for one worker execute in submission order and take
  /// priority over the shared queue — the affinity primitive behind the
  /// sharded fleet service, where each shard's tasks must always land on
  /// the worker owning that shard's state (no synchronization needed on
  /// the state itself).
  std::future<void> SubmitPinned(std::size_t worker,
                                 std::function<void()> task);

  /// SubmitPinned to the worker a stable name maps to:
  /// WorkerIndexForName gives names with a trailing integer (e.g.
  /// "shard-7") that integer modulo NumThreads(), so shard names
  /// partition round-robin; other names hash (FNV-1a) modulo
  /// NumThreads(). Tasks sharing a name always share a worker.
  std::future<void> SubmitNamed(std::string_view name,
                                std::function<void()> task);
  std::size_t WorkerIndexForName(std::string_view name) const;

  /// Runs body(i) for i in [begin, end), distributing contiguous chunks
  /// over the pool and blocking until all complete. Exceptions thrown by
  /// `body` are rethrown (first one wins). Safe to call from a worker
  /// thread: it then runs inline to avoid deadlock.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of this pool's workers. Code
  /// that fans work out over the pool and blocks on completion (e.g.
  /// the multi-core tree kernel) must run inline instead when already
  /// on a worker: a worker waiting on futures served by its own queue
  /// can deadlock, and the sharded fleet service pins each shard to one
  /// worker precisely so its decisions never migrate.
  bool CurrentThreadInPool() const;

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& Global();

 private:
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  /// Per-worker pinned queues (guarded by mutex_); checked before the
  /// shared queue so affinity work is never stolen.
  std::vector<std::deque<std::function<void()>>> pinned_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> pinned_depth_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

}  // namespace gaugur::common
