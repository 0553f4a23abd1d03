#include "core/threadpool.hpp"

#include <algorithm>
#include <thread>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace biochip::core {

namespace {

// Spin budget before a thread parks on a condition variable: a few pause
// rounds, then a bounded run of yields. Supervisory tick loops issue jobs
// back to back, tens to hundreds of microseconds apart; a futex park and
// wake per job costs about as much as the job itself there.
constexpr int kPauseRounds = 64;
constexpr int kYieldRounds = 200;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// Spin until `ready()` or the budget runs out; returns ready().
template <typename Ready>
bool spin_until(Ready&& ready) {
  for (int i = 0; i < kPauseRounds; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  for (int i = 0; i < kYieldRounds; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t total = threads;
  if (total == 0) total = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // The caller is one lane of parallelism; spawn the rest.
  workers_.reserve(total - 1);
  for (std::size_t w = 0; w + 1 < total; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_chunk(std::size_t part, std::size_t parts) {
  const std::size_t n = job_end_ - job_begin_;
  const std::size_t chunk = (n + parts - 1) / parts;
  const std::size_t b = job_begin_ + part * chunk;
  const std::size_t e = std::min(job_end_, b + chunk);
  if (b >= e) return;
  try {
    (*job_)(b, e);
  } catch (...) {
    std::lock_guard lk(error_m_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    // A new job is visible once ticket_ carries its generation (the release
    // store that publishes it comes last), so spin on that before parking.
    const bool fresh = spin_until([&] {
      return (ticket_.load(std::memory_order_acquire) >> kPartBits) != seen;
    });
    if (fresh) {
      seen = ticket_.load(std::memory_order_acquire) >> kPartBits;
    } else {
      std::unique_lock lk(m_);
      wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    for (;;) {
      // The acq_rel RMW pairs with the release store in parallel_for, so a
      // claim whose generation matches gen_parts_ has synchronized with that
      // job's publish and may read the plain job fields. A ticket drawn from
      // an older generation's space (this worker raced ahead of the reset, or
      // slept through a whole job) is detected by the generation mismatch and
      // discarded — that job is already complete, so no chunk is lost.
      const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_acq_rel);
      const std::uint64_t gp = gen_parts_.load(std::memory_order_acquire);
      if ((t >> kPartBits) != (gp >> kPartBits)) break;
      const std::size_t part = static_cast<std::size_t>(t & kPartMask);
      const std::size_t parts = static_cast<std::size_t>(gp & kPartMask);
      if (part >= parts) break;
      run_chunk(part, parts);
      if (parts_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == parts) {
        std::lock_guard lk(m_);
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& chunk_fn,
    std::size_t max_parts) {
  BIOCHIP_REQUIRE(begin <= end, "parallel_for range inverted");
  const std::size_t n = end - begin;
  if (n == 0) return;
  std::size_t parts = max_parts == 0 ? size() : std::min(max_parts, size());
  parts = std::min(parts, n);
  jobs_total_.fetch_add(1, std::memory_order_relaxed);
  chunks_total_.fetch_add(parts <= 1 ? 1 : parts, std::memory_order_relaxed);
  std::uint64_t prev_max = max_parts_.load(std::memory_order_relaxed);
  while (prev_max < parts &&
         !max_parts_.compare_exchange_weak(prev_max, parts,
                                           std::memory_order_relaxed)) {
  }
  if (parts <= 1) {
    chunk_fn(begin, end);
    return;
  }
  BIOCHIP_REQUIRE(parts <= kPartMask, "parallel_for chunk count overflows ticket space");

  std::lock_guard job_lk(job_m_);
  std::uint64_t gen = 0;
  {
    std::lock_guard lk(m_);
    job_ = &chunk_fn;
    job_begin_ = begin;
    job_end_ = end;
    gen = ++generation_;
    parts_done_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    gen_parts_.store((gen << kPartBits) | parts, std::memory_order_release);
    // Release-publish the job state: claimers validate their ticket's
    // generation against gen_parts_ before touching any of the fields above,
    // so a stale worker can never act on a mixed old/new view of the job.
    ticket_.store(gen << kPartBits, std::memory_order_release);
  }
  wake_cv_.notify_all();

  // The calling thread claims chunks alongside the workers. Tickets it draws
  // are always from its own generation: only parallel_for advances the
  // generation, and job_m_ makes this the sole active call.
  for (;;) {
    const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t part = static_cast<std::size_t>(t & kPartMask);
    if (part >= parts) break;
    run_chunk(part, parts);
    parts_done_.fetch_add(1, std::memory_order_acq_rel);
  }
  spin_until([&] { return parts_done_.load(std::memory_order_acquire) == parts; });
  {
    std::unique_lock lk(m_);
    done_cv_.wait(lk, [&] {
      return parts_done_.load(std::memory_order_acquire) == parts;
    });
    job_ = nullptr;
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace biochip::core
