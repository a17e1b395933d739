// Fixed-size FIFO thread pool and the ParallelFor built on it.
//
// Deliberately work-stealing-free: tasks are pulled from a single FIFO
// queue under one mutex, so the pool adds no scheduling state of its own
// and a given task set always performs the same work regardless of which
// worker runs which task. Determinism of *results* is the caller's job —
// callers write each task's output into a pre-assigned slot and reduce
// the slots in submission order.
//
// ParallelFor is the one way the library schedules parallel work, and
// its one caller is the search's candidate costing (search/greedy.cc,
// DESIGN.md §8); query execution is serial (DESIGN.md §13). It runs
// fn(0..n-1) inline on the calling thread when the pool would have a
// single worker (no threads are spawned, no mutex is taken), and on the
// pool otherwise, so callers never branch on the thread count. A `stop`
// predicate lets callers skip tasks that have not started once the run
// is doomed (a tripped budget).

#ifndef XMLSHRED_COMMON_THREAD_POOL_H_
#define XMLSHRED_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xmlshred {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. Tasks start in FIFO order.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  // std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // queued + currently running tasks
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// Resolves a SearchOptions-style thread count: <= 0 means "use all
// hardware threads", anything else is taken as-is.
int ResolveNumThreads(int requested);

// Runs fn(0), ..., fn(n - 1). With `num_threads` <= 1 the calls happen
// inline, in order, on the calling thread; otherwise they are dispatched
// to a transient pool of `num_threads` workers and this call blocks until
// all have finished. When `stop` is non-null, a task whose turn comes
// after stop() turned true is skipped (already-running tasks finish).
// fn must confine its effects to per-index state; reduce afterwards.
void ParallelFor(int num_threads, int n,
                 const std::function<void(int)>& fn,
                 const std::function<bool()>& stop = nullptr);

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_THREAD_POOL_H_
