#include "util/thread_pool.h"

#include <utility>

#include "util/check.h"
#include "util/env.h"
#include "util/trace.h"

namespace wsnq {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  worker_labels_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    worker_labels_.push_back("thread_pool/worker_" + std::to_string(i));
  }
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

Status ThreadPool::ParallelFor(int64_t n,
                               const std::function<Status(int64_t)>& fn) {
  WSNQ_CHECK_GE(n, 0);
  if (n == 0) return Status::Ok();
  if (num_threads_ == 1 || n == 1) {
    // Inline serial path: index order; the first failure wins but later
    // indices still run, matching the parallel path's semantics.
    prof::ScopedTimer timer(worker_labels_[0].c_str());
    Status first = Status::Ok();
    bool failed = false;
    for (int64_t i = 0; i < n; ++i) {
      Status status = fn(i);
      if (!status.ok() && !failed) {
        failed = true;
        first = std::move(status);
      }
    }
    return first;
  }

  MutexLock run_lock(run_mu_);
  {
    MutexLock lock(mu_);
    job_fn_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    completed_ = 0;
    error_index_ = -1;
    error_status_ = Status::Ok();
    ++epoch_;
  }
  work_cv_.NotifyAll();
  RunChunk(worker_labels_[0].c_str());
  Status result;
  {
    MutexLock lock(mu_);
    while (!(completed_ == job_n_ && active_ == 0)) done_cv_.Wait(lock);
    job_fn_ = nullptr;
    result = error_index_ >= 0 ? std::move(error_status_) : Status::Ok();
  }
  return result;
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  MutexLock lock(mu_);
  for (;;) {
    while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(lock);
    if (shutdown_) return;
    seen_epoch = epoch_;
    if (job_fn_ == nullptr) continue;  // woke after the job drained
    ++active_;
    lock.Unlock();
    RunChunk(worker_labels_[static_cast<size_t>(worker)].c_str());
    lock.Lock();
    --active_;
    if (completed_ == job_n_ && active_ == 0) done_cv_.NotifyAll();
  }
}

void ThreadPool::RunChunk(const char* label) {
  // Per-worker busy span (wall clock, stderr-only profile — never part of
  // deterministic output). Sampled per chunk, not per index, so the
  // overhead is one clock pair per ParallelFor participation.
  const double chunk_start =
      prof::Enabled() ? prof::WallSeconds() : -1.0;
  for (;;) {
    const int64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= job_n_) {
      if (chunk_start >= 0.0) {
        prof::AddSample(label, prof::WallSeconds() - chunk_start);
      }
      return;
    }
    Status status = (*job_fn_)(index);
    MutexLock lock(mu_);
    if (!status.ok() &&
        (error_index_ < 0 || index < error_index_)) {
      error_index_ = index;
      error_status_ = std::move(status);
    }
    if (++completed_ == job_n_) done_cv_.NotifyAll();
  }
}

int ThreadPool::DefaultThreadCount() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return PositiveIntFromEnv("WSNQ_THREADS",
                            hardware > 0 ? static_cast<int>(hardware) : 1);
}

}  // namespace wsnq
