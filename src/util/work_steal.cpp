#include "util/work_steal.hpp"

#include <stdexcept>
#include <utility>

#include "util/fault_inject.hpp"

namespace parhuff {

namespace {
// Which executor's worker (if any) the current thread is, so nested
// submissions can target their own deque.
thread_local const WorkStealExecutor* tl_owner = nullptr;
thread_local std::size_t tl_index = 0;
}  // namespace

WorkStealExecutor::WorkStealExecutor(int threads, const util::Clock* clock)
    : clock_(clock ? clock : &util::Clock::real()) {
  std::size_t n = threads > 0 ? static_cast<std::size_t>(threads)
                              : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealExecutor::~WorkStealExecutor() {
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkStealExecutor::submit(std::function<void()> task) {
  // Fault-injection site: models a transient admission failure (e.g. a
  // saturated remote pool). Callers that retry see InjectedFault, which
  // is a TransientError.
  util::FaultInjector::global().maybe_throw("executor.submit");
  std::size_t target;
  if (tl_owner == this) {
    target = tl_index;
  } else {
    target = rr_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> qlock(queues_[target]->mu);
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      if (stopping_) {
        throw std::logic_error("WorkStealExecutor: submit() after shutdown");
      }
      inflight_.fetch_add(1, std::memory_order_relaxed);
      queued_.fetch_add(1, std::memory_order_release);
    }
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool WorkStealExecutor::take(std::size_t self, std::function<void()>& out,
                             bool& stolen) {
  {
    Deque& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      stolen = false;
      return true;
    }
  }
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Deque& victim = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      stolen = true;
      return true;
    }
  }
  return false;
}

void WorkStealExecutor::worker_loop(std::size_t self) {
  tl_owner = this;
  tl_index = self;
  std::function<void()> task;
  bool stolen = false;
  for (;;) {
    if (take(self, task, stolen)) {
      task();
      task = nullptr;
      executed_.fetch_add(1, std::memory_order_relaxed);
      if (stolen) stolen_.fetch_add(1, std::memory_order_relaxed);
      if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(cv_mu_);
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(cv_mu_);
    // Re-check under cv_mu_: a submitter increments queued_ under this
    // mutex before notifying, so the predicate cannot miss a push that
    // happened between the failed take() and this wait. The park itself is
    // a clock-routed timed wait per quantum (not an unbounded cv wait), so
    // an injected VirtualClock governs idle time in tests; a notify still
    // wakes the worker immediately, the timeout is only a backstop. The
    // clock is read once per quantum, not once per wakeup: a VirtualClock
    // wait wakes every few hundred microseconds of real time, and reading
    // it there would advance an auto-advancing clock with idle wall time
    // instead of with the polls a test counts on.
    auto quantum_end = clock_->now() + std::chrono::milliseconds(50);
    while (!(stopping_ || queued_.load(std::memory_order_acquire) > 0)) {
      if (clock_->wait_until(work_cv_, lock, quantum_end) ==
          std::cv_status::timeout) {
        quantum_end = clock_->now() + std::chrono::milliseconds(50);
      }
    }
    if (stopping_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

void WorkStealExecutor::wait_idle() {
  std::unique_lock<std::mutex> lock(cv_mu_);
  idle_cv_.wait(lock, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

WorkStealExecutor::Stats WorkStealExecutor::stats() const {
  return Stats{executed_.load(std::memory_order_relaxed),
               stolen_.load(std::memory_order_relaxed)};
}

}  // namespace parhuff
