// Index-ordered fan-out for the experiment runner and the fault Monte Carlo.
//
// Every caller hands over one fixed batch of coarse, independent work items
// (sweep cells of tens of milliseconds to seconds, Monte Carlo chunks) from
// one thread and waits for all of them, so one blocking call is the whole
// interface: parallel_for() starts its threads, each thread claims the next
// unclaimed index from one shared counter, and the call returns once every
// index has run.  Work therefore *starts* in index order; it finishes in
// whatever order the items take.
//
// Determinism note: callers index their output slots by item index, so
// anything computed from per-item state alone is bit-identical whatever the
// thread count or the interleaving.
#pragma once

#include <cstddef>
#include <functional>

namespace eccsim::runner {

/// Runs fn(i) for every i in [0, n) and returns once all have finished.
/// Starts min(threads, n) threads; each claims the next index from one
/// atomic counter.  Runs inline on the calling thread, in index order, when
/// `threads <= 1`, when `n <= 1`, or when called from a parallel_for worker
/// -- so a nested fan-out (e.g. a fault Monte Carlo launched from inside a
/// sweep cell) cannot oversubscribe the machine.  An exception escaping
/// `fn` on a worker terminates the process, matching std::thread semantics;
/// items are expected to catch and encode their own failures.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// Thread count the runner should use: the `RUNNER_THREADS` environment
/// variable if set to a positive integer, else the hardware concurrency
/// (minimum 1).
unsigned default_thread_count();

}  // namespace eccsim::runner
