// Chunked Monte Carlo execution engine for the fault-lifetime studies.
//
// Every reliability figure of the paper (Fig. 2 MTBF, Fig. 8 EOL
// correction fraction, Fig. 18 scrub windows, Sec. VI-B HPC stall) is a
// mean over many independently simulated systems.  This engine owns the
// fan-out mechanics so the per-figure code in montecarlo.cpp is pure
// modeling:
//
//   - Systems execute in fixed-size chunks over runner::parallel_for
//     (honoring RUNNER_THREADS), which starts chunks in index order.  A
//     Monte Carlo launched from inside a parallel_for worker -- e.g. from
//     a sweep cell -- runs inline instead of oversubscribing.
//   - Each system draws from its own RNG substream derived from
//     (seed, system index).  The worker that completes a chunk merges
//     every consecutive ready chunk under the engine's lock, in strict
//     index order, so the final statistics are bit-identical at any
//     thread count and any chunk size, and the merge keeps pace with the
//     computation instead of waiting for the last chunk.
//   - Optional confidence-interval early termination: when a relative-CI
//     callback is supplied and `target_rel_ci` is set, the run stops at
//     the first chunk boundary where the estimate has converged.  The
//     stopping point depends (only) on the chunk size.
//   - Optional chunk-granular checkpointing: completed chunks append to a
//     text file as they merge; a rerun pointed at the same file skips the
//     recorded chunks and reproduces the uninterrupted output exactly.
//   - Optional mc.* observability: systems/chunk counters, chunk timings,
//     and a per-chunk relative-CI series in a stats::Registry.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace eccsim::stats {
class Registry;
}

namespace eccsim::faults {

/// Default systems per chunk: coarse enough that dispatch is noise,
/// fine enough that early stop and checkpoints have useful granularity.
inline constexpr unsigned kMcDefaultChunkSize = 256;

/// Knobs for one Monte Carlo run.  The zero-initialized default runs the
/// full budget at the default thread count with no checkpointing.
struct McOptions {
  /// Worker threads; 0 = runner::default_thread_count()
  /// (the RUNNER_THREADS environment variable, else all cores).
  unsigned threads = 0;
  /// Systems per chunk; 0 = kMcDefaultChunkSize.  Results are identical
  /// for any value; only early-stop granularity and checkpoint size vary.
  unsigned chunk_size = 0;
  /// Stop once the estimate's relative 95% CI half-width falls to this
  /// value (checked at chunk boundaries, in chunk order).  0 = run the
  /// whole budget.  Requires the run to supply a rel-CI callback.
  double target_rel_ci = 0.0;
  /// Systems that must merge before early stop may trigger, so a lucky
  /// first chunk cannot truncate the run.
  unsigned min_systems = 1000;
  /// Chunk-granular checkpoint file ("" = no checkpointing).  Several
  /// runs -- even from different binaries -- may share one file; chunks
  /// are matched by a hash of the run tag and sampling parameters.
  std::string checkpoint_path;
  /// Destination for mc.* counters/series (nullptr = no stats).
  stats::Registry* stats = nullptr;
};

/// What one engine run actually executed.
struct McRunInfo {
  std::uint64_t systems_requested = 0;
  std::uint64_t systems_merged = 0;    ///< contributed to the estimate
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_merged = 0;
  std::uint64_t chunks_loaded = 0;     ///< restored from the checkpoint
  bool early_stopped = false;
  /// Relative CI at the last check; NaN when no rel-CI callback ran.
  double final_rel_ci = std::numeric_limits<double>::quiet_NaN();
};

/// Deterministic per-system generator: cheap to derive for any index
/// (unlike repeated jump()), still statistically independent streams.
Rng mc_system_rng(std::uint64_t seed, unsigned index);

/// Deterministic retention key for system `index`, for
/// QuantileReservoir bottom-k sketches.  Uses a different mixing path
/// than mc_system_rng so retention is uncorrelated with the sample
/// stream.
std::uint64_t mc_sample_key(std::uint64_t seed, unsigned index);

/// Evaluates one system: fills `fields[0..nfields)` from draws on `rng`.
/// Runs on a worker thread; must not touch shared state.
using McSystemFn =
    std::function<void(unsigned index, Rng& rng, double* fields)>;
/// Consumes one system's fields.  Calls are serialized under the engine's
/// lock, in strict index order, on whichever thread completed a chunk --
/// state that only the merge and rel-CI callbacks touch needs no lock.
using McMergeFn = std::function<void(unsigned index, const double* fields)>;
/// Current relative 95% CI half-width of the run's primary estimate;
/// polled after each merged chunk, serialized with the merges.
using McRelCiFn = std::function<double()>;

/// Runs `fn` for systems [0, systems) and feeds every system's fields to
/// `merge` in index order.  `tag` names the run for checkpoint matching
/// and stat series (keep it short, unique per parameter point, and free
/// of whitespace).  `rel_ci` may be null when neither early stop nor the
/// CI series is wanted.
McRunInfo mc_run(unsigned systems, std::uint64_t seed, std::size_t nfields,
                 const std::string& tag, const McOptions& opts,
                 const McSystemFn& fn, const McMergeFn& merge,
                 const McRelCiFn& rel_ci = nullptr);

/// Deterministic parallel map over system indices: runs
/// fn(system_index, rng) for each index in [0, systems) over
/// runner::parallel_for, each index seeded from mc_system_rng(seed,
/// index).  The index visit *set* is thread-count independent; the visit
/// *order* is not, so `fn` must either be independent per index or do its
/// own (order insensitive) aggregation.  Prefer mc_run for anything that
/// reduces to statistics.
void parallel_systems(unsigned systems, std::uint64_t seed,
                      const std::function<void(unsigned, Rng&)>& fn);

}  // namespace eccsim::faults
