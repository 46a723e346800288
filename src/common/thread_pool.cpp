#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.h"
#include "obs/metrics.h"

namespace gaugur::common {

namespace {

/// Process-wide pool telemetry (summed across every ThreadPool instance).
struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("pool.queue_depth");
  obs::Gauge& pinned_queue_depth =
      obs::Registry::Global().GetGauge("pool.pinned_queue_depth");
  obs::Counter& tasks_executed =
      obs::Registry::Global().GetCounter("pool.tasks_executed");

  static PoolMetrics& Get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pinned_.resize(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock lock(mutex_);
          cv_.wait(lock, [this, i] {
            return stop_ || !tasks_.empty() || !pinned_[i].empty();
          });
          if (stop_ && tasks_.empty() && pinned_[i].empty()) return;
          // Pinned work first: affinity tasks must run on this worker
          // and in submission order, so they are never left behind a
          // long shared-queue backlog.
          if (!pinned_[i].empty()) {
            task = std::move(pinned_[i].front());
            pinned_[i].pop_front();
            pinned_depth_.fetch_sub(1, std::memory_order_relaxed);
            PoolMetrics::Get().pinned_queue_depth.Sub(1);
          } else {
            task = std::move(tasks_.front());
            tasks_.pop();
            queue_depth_.fetch_sub(1, std::memory_order_relaxed);
            PoolMetrics::Get().queue_depth.Sub(1);
          }
        }
        // Counted at dequeue so the tally is exact the moment every
        // submitted future has resolved (the increment happens-before the
        // task body, which happens-before the future becoming ready).
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        PoolMetrics::Get().tasks_executed.Add(1);
        task();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers only exit once the queue is empty (see the wait predicate), so
  // joining them is a deterministic drain: every task submitted before
  // stop was set has run by the time the joins return.
  for (auto& w : workers_) w.join();
  GAUGUR_CHECK_MSG(tasks_.empty(), "ThreadPool destroyed with queued tasks");
  for (const auto& q : pinned_) {
    GAUGUR_CHECK_MSG(q.empty(), "ThreadPool destroyed with pinned tasks");
  }
  GAUGUR_CHECK_MSG(QueueDepth() == 0,
                   "queue-depth gauge nonzero after drain");
  GAUGUR_CHECK_MSG(PinnedQueueDepth() == 0,
                   "pinned-queue-depth gauge nonzero after drain");
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    GAUGUR_CHECK_MSG(!stop_, "Submit on stopped ThreadPool");
    tasks_.emplace([packaged] { (*packaged)(); });
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().queue_depth.Add(1);
  }
  cv_.notify_one();
  return future;
}

std::future<void> ThreadPool::SubmitPinned(std::size_t worker,
                                           std::function<void()> task) {
  GAUGUR_CHECK_MSG(worker < workers_.size(), "pinned worker out of range");
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    GAUGUR_CHECK_MSG(!stop_, "SubmitPinned on stopped ThreadPool");
    pinned_[worker].emplace_back([packaged] { (*packaged)(); });
    pinned_depth_.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().pinned_queue_depth.Add(1);
  }
  // notify_all: with one condition variable, notify_one could wake a
  // worker whose pinned queue is empty while the target keeps sleeping.
  cv_.notify_all();
  return future;
}

std::size_t ThreadPool::WorkerIndexForName(std::string_view name) const {
  const std::size_t n = workers_.size();
  // Names ending in an integer ("shard-7", "worker12") map by that
  // integer modulo N, so numbered shards partition round-robin with no
  // hash collisions among the first N shards.
  std::size_t digits = 0;
  while (digits < name.size() &&
         name[name.size() - 1 - digits] >= '0' &&
         name[name.size() - 1 - digits] <= '9') {
    ++digits;
  }
  if (digits > 0) {
    std::uint64_t value = 0;
    for (std::size_t i = name.size() - digits; i < name.size(); ++i) {
      value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
      if (value > (std::uint64_t{1} << 52)) value %= n;  // avoid overflow
    }
    return static_cast<std::size_t>(value % n);
  }
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash % n);
}

std::future<void> ThreadPool::SubmitNamed(std::string_view name,
                                          std::function<void()> task) {
  return SubmitPinned(WorkerIndexForName(name), std::move(task));
}

bool ThreadPool::CurrentThreadInPool() const {
  const auto self = std::this_thread::get_id();
  return std::any_of(workers_.begin(), workers_.end(),
                     [self](const std::thread& w) { return w.get_id() == self; });
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Inline when trivial or when called from a worker (nested parallelism):
  // a worker blocking on futures served by the same pool would deadlock.
  if (n == 1 || workers_.size() == 1 || CurrentThreadInPool()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t num_chunks = std::min(n, workers_.size() * 4);
  std::atomic<std::size_t> next_chunk{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto run_chunks = [&] {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= num_chunks) return;
      const std::size_t chunk_begin = begin + c * n / num_chunks;
      const std::size_t chunk_end = begin + (c + 1) * n / num_chunks;
      try {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::future<void>> futures;
  const std::size_t helpers = std::min(workers_.size(), num_chunks) - 1;
  futures.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) {
    futures.push_back(Submit(run_chunks));
  }
  run_chunks();  // The calling thread participates too.
  for (auto& f : futures) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gaugur::common
