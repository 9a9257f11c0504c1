// Parallel sweep execution for the experiment harnesses.
//
// Every figure/table harness is a sweep: N independent points
// (quantum values, node counts, ...), each owning its Simulator,
// Cluster and captured bench::Point, connected only by the order in
// which rows are printed and points committed. SweepRunner exploits
// that: points evaluate on a `--jobs N` thread pool while commits —
// the printing and `Harness::commit` — run on the calling thread
// strictly in point-index order. A `--jobs 4` run therefore produces
// stdout and every exported artifact byte-identical to a serial run
// (CI diffs the two). Points share no mutable state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace storm::bench {

class SweepRunner {
 public:
  explicit SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

  int jobs() const { return jobs_; }

  /// Evaluate `point(i)` for every i in [0, n) and call
  /// `commit(i, result)` on the calling thread, strictly in point
  /// order. `point` must be safe to call concurrently from several
  /// threads (each invocation should build its own Simulator/Cluster
  /// and touch no shared state); `commit` does all the printing and
  /// merging and is never concurrent with itself. With jobs() == 1
  /// everything runs inline on the calling thread, exactly like the
  /// pre-runner serial loops. A point that throws has its exception
  /// rethrown from here (on the calling thread) after the pool winds
  /// down; remaining uncommitted points are abandoned.
  template <typename PointFn, typename CommitFn>
  void run(std::size_t n, PointFn&& point, CommitFn&& commit) const {
    using Result = std::decay_t<std::invoke_result_t<PointFn&, std::size_t>>;
    if (jobs_ == 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) {
        Result r = point(i);
        commit(i, r);
      }
      return;
    }

    std::vector<std::optional<Result>> results(n);
    std::mutex mu;
    std::condition_variable ready;
    std::size_t next = 0;             // next unclaimed point index
    std::exception_ptr first_error;   // also stops workers claiming

    const std::size_t nworkers =
        std::min(static_cast<std::size_t>(jobs_), n);
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          std::size_t i;
          {
            const std::lock_guard<std::mutex> lock(mu);
            if (first_error != nullptr || next >= n) return;
            i = next++;
          }
          std::optional<Result> r;
          std::exception_ptr err;
          try {
            r.emplace(point(i));
          } catch (...) {
            err = std::current_exception();
          }
          {
            const std::lock_guard<std::mutex> lock(mu);
            if (err != nullptr) {
              if (first_error == nullptr) first_error = err;
            } else {
              results[i] = std::move(r);
            }
          }
          ready.notify_all();
        }
      });
    }

    std::exception_ptr failure;
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      // Wake when point i is ready — or when any point failed, since
      // the pool stops claiming then and i might never be computed.
      ready.wait(lock, [&] {
        return results[i].has_value() || first_error != nullptr;
      });
      if (!results[i].has_value()) {
        failure = first_error;
        break;
      }
      Result r = std::move(*results[i]);
      results[i].reset();
      lock.unlock();
      commit(i, r);  // in order, outside the lock: commits may be slow
    }
    for (auto& t : pool) t.join();
    if (failure != nullptr) std::rethrow_exception(failure);
  }

 private:
  int jobs_;
};

}  // namespace storm::bench
