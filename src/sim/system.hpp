// Full-system performance/energy simulator (Sec. IV methodology).
//
// Pipeline per simulated memory-clock cycle (1 GHz):
//   1. The DRAM simulator advances; completed reads unblock waiting cores
//     and fill the LLC (128B-line schemes fill both 64B halves -- the
//     prefetch effect that lets commercial chipkill win on some
//     spatially-local workloads, Sec. V-C).
//   2. Each of the eight 2 GHz cores runs two CPU cycles: committing up to
//     `width` instructions, issuing its next memory operation when its
//     instruction gap elapses.  Reads that miss the LLC occupy one of the
//     core's MLP slots; a core with all slots full stalls -- this is the
//     latency feedback that turns DRAM contention into IPC loss.  Cores
//     run on events: a core is visited only on the CPU cycle something
//     can happen to it, and a CPU cycle with no core due costs one
//     compare.  A gap that outlasts a cycle's budget commits its whole
//     cycles without visits, and the core comes due on the cycle its op
//     does.  A stalled core sleeps until one of the two events that can
//     end the stall: a completion frees one of its MLP slots, or its
//     read's line enters the LLC (a demand miss or write-allocate of any
//     core, or a completion fill).  Then it retries, in the same CPU cycle
//     if a lower-numbered core's insert woke it, so the read issues on the
//     first cycle on which a retry would succeed.  Ops are drawn and run
//     on the same CPU cycle and in the same core order as a per-cycle
//     visit of every core would draw and run them.
//   3. LLC evictions expand into ECC-maintenance traffic per the scheme's
//     MaintRule (Sec. IV-C): dirty data -> memory write (+ an ECC/XOR
//     cacheline touch for tiered/parity schemes); dirty ECC line -> one
//     write; dirty XOR line -> parity read-modify-write (one read + one
//     write).  The LLC warm-up runs the same rule and drops the requests.
//     It pulls its ops a block of whole rounds at a time
//     (TraceSource::next_rounds) and runs each block in (round, core)
//     order, prefetching each op's LLC set block 8 ops ahead.
//
// The result captures exactly what Figs. 9-17 report: memory energy split
// into dynamic/background, performance (IPC), bandwidth utilization, and
// memory accesses (64B units) per instruction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "check/protocol_checker.hpp"
#include "dram/memory_system.hpp"
#include "ecc/scheme.hpp"
#include "eccparity/layout.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"
#include "trace/source.hpp"
#include "trace/workload.hpp"
#include "tracefile/replay.hpp"
#include "tracefile/writer.hpp"

namespace eccsim::sim {

/// Processor parameters (Table I).
struct CpuConfig {
  unsigned cores = 8;
  unsigned width = 2;             ///< commit width per core cycle
  unsigned cpu_cycles_per_mem_cycle = 2;  ///< 2 GHz cores, 1 GHz memory
  unsigned mlp = 4;               ///< outstanding read misses per core
};

/// Run-control knobs.
struct SimOptions {
  std::uint64_t target_instructions = 2'000'000;  ///< total across cores
  std::uint64_t max_mem_cycles = 20'000'000;      ///< throws if hit first
  std::uint64_t seed = 1;
  /// Banks recorded as faulty, for degraded-mode studies (steps B/D of
  /// Fig. 6).  Keys: (channel << 16) | (rank << 8) | bank.
  std::vector<std::uint32_t> faulty_banks;
  /// Rank power-down when idle (the Sec. IV-B close-page sleep policy);
  /// disable for the power-down ablation.
  bool powerdown_enabled = true;
  /// Row-buffer policy (the paper uses close-page; open-page is available
  /// for the row-policy ablation).
  dram::RowPolicy row_policy = dram::RowPolicy::kClosePage;
  /// DRAM generation to build the scheme's memory system on (DDR3 is the
  /// paper-faithful default).
  dram::Generation dram_gen = dram::Generation::kDdr3;
  /// Demand-scrub injection: when nonzero, one extra scrub read is issued
  /// every this many memory cycles, sweeping addresses round-robin
  /// (Sec. VI-C's scrub-rate cost in performance/energy terms).
  std::uint64_t scrub_read_interval = 0;
  /// When nonzero, ECC/XOR cachelines live in a dedicated cache of this
  /// size instead of the LLC.  Multi-ECC [13] used a dedicated 128 KB ECC
  /// cache; the paper's methodology moves ECC lines into the 8 MB LLC
  /// (Sec. IV-C) -- this knob quantifies that choice.
  std::uint64_t dedicated_ecc_cache_bytes = 0;
  /// Attaches the independent DRAM protocol checker
  /// (check/protocol_checker.hpp) to every channel: each command the DRAM
  /// model issues is re-validated against the raw timing tables, and run()
  /// throws std::runtime_error with a full report if any violation was
  /// counted (in the checker's fatal mode a violation aborts immediately
  /// instead).  Observation only -- results are bit-identical.  Also
  /// enabled by setting the ECCSIM_CHECK environment variable to a value
  /// other than "0", which is how CI audits the benchmark sweeps.
  bool protocol_check = false;
  /// Replay stimulus from a recorded pre-LLC .ecctrace file instead of the
  /// synthetic generators.  The trace's workload name and core count must
  /// match this run's configuration (TraceError otherwise), and the trace
  /// must hold enough ops to cover warmup plus the measured phase -- a
  /// short trace throws rather than diverging.  With a trace recorded at
  /// the workload's canonical seed (trace::paper_sweep_seed), replay is
  /// bit-identical to live generation.
  std::string trace_in;
  /// Record this run's stimulus to an .ecctrace file at `trace_point`.
  /// Observation only: results are bit-identical with or without it.
  /// May be combined with trace_in (re-record a replay).
  std::string trace_out;
  /// Capture point for trace_out: kPreLlc records the per-core MemOp
  /// stream (replayable); kPostLlc records the DRAM request stream after
  /// LLC filtering and ECC expansion (analysis only -- it depends on the
  /// scheme and cannot be fed back in).
  tracefile::CapturePoint trace_point = tracefile::CapturePoint::kPreLlc;
  /// Observability sink for this run (optional).  When set and enabled,
  /// the simulator registers every component's stats in the collector's
  /// registry under stable dotted paths, samples the registry every
  /// Config::epoch_cycles memory cycles, and mirrors DRAM commands and
  /// ECC-parity slow-path events into the collector's tracer.
  /// Observation only: simulated results are bit-identical with or
  /// without it.  Must outlive run(); one collector per SystemSim.
  stats::Collector* stats = nullptr;
};

/// Everything a run produces.  Plain data: serialized to the bench sweep
/// CSV and to JSON by runner::to_json(), so additions here should be
/// mirrored in both encoders.
struct RunResult {
  std::string scheme;             ///< ecc::SchemeDesc::name of the run
  std::string workload;           ///< trace::WorkloadDesc::name of the run
  std::uint64_t instructions = 0; ///< committed across all cores
  std::uint64_t mem_cycles = 0;   ///< measured-phase memory-clock cycles
  double ipc = 0;                ///< instructions per CPU cycle (all cores)
  dram::MemSystemStats mem;      ///< traffic, latency, and energy breakdown
  cache::Cache::Stats llc;       ///< LLC hits/misses/writebacks (post-warm)
  double epi_pj = 0;             ///< memory energy per instruction (pJ)
  double dynamic_epi_pj = 0;
  double background_epi_pj = 0;  ///< incl. refresh
  double mapi = 0;               ///< 64B memory accesses per instruction
  double bandwidth_utilization = 0;  ///< data-bus busy fraction (mean)
  double avg_read_latency = 0;
};

/// The ECC-maintenance rule of one scheme on one memory system (Sec. IV-C,
/// Fig. 6), shared by the LLC warm-up and the measured phase.  It follows
/// the eviction chain through the cache holding ECC/XOR lines and reports
/// each memory request as emit(line, is_write, line_class), `line` being a
/// data memory line for LineClass::kData and an ECC/XOR cache key
/// otherwise; SystemSim computes the DRAM address, the warm-up drops it.
/// Callers check each op's memory line against total_data_lines() before
/// its LLC access, so every data line in the caches lies in the memory.
class MaintRule {
 public:
  /// Throws std::invalid_argument unless the memory-line size is 64B times
  /// a power of two.  `faulty_banks` count only under ECC Parity.
  MaintRule(const ecc::SchemeDesc& scheme, const dram::MemGeometry& geom,
            const std::vector<std::uint32_t>& faulty_banks);

  std::uint64_t memline_of(std::uint64_t line64) const {
    return line64 >> memline_shift_;
  }
  /// Decode's domain: a memory line at or past it would alias another.
  std::uint64_t total_data_lines() const { return total_data_lines_; }
  /// False when degraded_read() never takes the slow path (no faulty
  /// banks, or not ECC Parity).
  bool has_faulty_banks() const { return !faulty_banks_.empty(); }
  /// The error text for such a line.
  [[gnu::cold]] std::string beyond_memory(std::uint64_t memline) const;
  const std::optional<eccparity::ParityLayout>& parity_layout() const {
    return parity_layout_;
  }

  /// Tag of tiered and materialized ECC-line cache keys (data lines use
  /// their raw 64B index; XOR cachelines carry ParityLayout's 1<<62 tag).
  static constexpr std::uint64_t kEccKeyTag = 1ULL << 63;

  /// Follows the dirty victim of `r`, if any, and every victim its ECC/XOR
  /// cacheline touch evicts from `ecc_cache`, emitting their writebacks.
  /// Each touch can evict at most one further line.
  template <class Emit>
  void evict(cache::Cache& ecc_cache, const cache::AccessResult& r,
             Emit&& emit) const {
    for (cache::AccessResult next = r; next.writeback;) {
      const std::uint64_t addr = next.victim_addr;
      const cache::LineKind kind = next.victim_kind;
      next = cache::AccessResult{};
      switch (kind) {
        case cache::LineKind::kData: {
          const std::uint64_t memline = memline_of(addr);
          emit(memline, true, dram::LineClass::kData);
          if (maint_ == ecc::MaintTraffic::kNone) break;
          // The write dirties the covering ECC/XOR cacheline (Fig. 7); a
          // faulty bank uses its materialized ECC line (step D) instead of
          // the parity's XOR line.
          const bool ecc_line =
              maint_ == ecc::MaintTraffic::kWriteOnEvict ||
              (!faulty_banks_.empty() && faulty_bank(memline).has_value());
          next = ecc_cache.access(
              ecc_cacheline_key(memline), true,
              ecc_line ? cache::LineKind::kEcc : cache::LineKind::kXor);
          break;
        }
        case cache::LineKind::kEcc:  // tier-2 / materialized ECC line
          emit(addr, true, dram::LineClass::kEccOther);
          break;
        case cache::LineKind::kXor:  // parity read-modify-write
          emit(addr, false, dram::LineClass::kEccParity);
          emit(addr, true, dram::LineClass::kEccParity);
          break;
      }
    }
  }

  struct SlowPath {
    bool taken = false;       ///< the line's bank is faulty
    bool ecc_cached = false;  ///< its ECC line was in the ECC cache
    std::uint32_t bank = 0;   ///< the faulty bank's key
  };
  /// Steps A1/B of Fig. 6 (ECC Parity with faulty banks): a read of data
  /// `memline` from a faulty bank also reads the bank's materialized ECC
  /// line, through `ecc_cache`.
  template <class Emit>
  SlowPath degraded_read(cache::Cache& ecc_cache, std::uint64_t memline,
                         Emit&& emit) const {
    if (faulty_banks_.empty()) return SlowPath{};
    const std::optional<std::uint32_t> bank = faulty_bank(memline);
    if (!bank) return SlowPath{};
    const std::uint64_t key = ecc_cacheline_key(memline) | kEccKeyTag;
    const auto er = ecc_cache.access(key, false, cache::LineKind::kEcc);
    evict(ecc_cache, er, emit);
    if (!er.hit) {
      emit(key & ~kEccKeyTag, false, dram::LineClass::kEccCorrection);
    }
    return SlowPath{true, er.hit, *bank};
  }

 private:
  /// The cache key of the ECC/XOR cacheline covering data `memline`.
  std::uint64_t ecc_cacheline_key(std::uint64_t memline) const;
  /// The faulty_banks key of `memline`'s bank (a decode), or nothing.
  std::optional<std::uint32_t> faulty_bank(std::uint64_t memline) const;

  ecc::MaintTraffic maint_;
  std::uint32_t ecc_line_coverage_;
  unsigned memline_shift_;  ///< log2 of the 64B lines per memory line
  std::uint64_t total_data_lines_;
  dram::AddressMap map_;
  std::optional<eccparity::ParityLayout> parity_layout_;
  std::vector<std::uint32_t> faulty_banks_;  ///< empty unless ECC Parity
};

/// The scheme inputs the LLC warm-up reads.  The warm-up streams the
/// workload's ops through the LLC under the scheme's MaintRule, which for
/// each dirty data eviction touches the covering ECC/XOR cacheline; nothing
/// else about the scheme reaches the cache.  Schemes with equal keys
/// therefore warm one workload (same seed and core count) to the same
/// WarmState, so a sweep can warm once per (workload, key) -- a warm-up
/// class -- and share the result.
struct WarmKey {
  ecc::MaintTraffic maint = ecc::MaintTraffic::kNone;
  bool uses_ecc_parity = false;
  /// Memory-line size: maps an evicted 64B line to the memory line whose
  /// ECC/XOR cacheline it dirties (0 for kNone).
  std::uint32_t line_bytes = 0;
  /// Tiered schemes' ECC key: data lines per ECC line (0 otherwise).
  std::uint32_t ecc_line_coverage = 0;
  /// ECC Parity's XOR key depends on the memory geometry (default
  /// otherwise).  Tiered keys never wrap at the memory's end, because every
  /// op's memory line is checked to lie in the memory, so they need no
  /// geometry.
  dram::MemGeometry geometry{};

  friend bool operator==(const WarmKey&, const WarmKey&) = default;
};

/// The warm-up class key of `scheme` on a `gen` memory system.
WarmKey warm_key(const ecc::SchemeDesc& scheme, dram::Generation gen);

/// True if a run with `opts` may start from a shared WarmState: synthetic
/// stimulus, no recording, no faulty banks and no dedicated ECC cache.
/// Those runs' warm-ups read more than the WarmKey, so they warm per cell.
bool shares_warm_up(const SimOptions& opts);

/// Groups `schemes` into warm-up classes (equal warm_key on `gen`): each
/// class lists its members' indices into `schemes`, classes in order of
/// their first member.
std::vector<std::vector<std::size_t>> warm_classes(
    const std::vector<ecc::SchemeDesc>& schemes, dram::Generation gen);

/// Ops the LLC warm-up streams, round-robin over `cores`: three LLC-sizes
/// of lines, rounded down to whole rounds.
std::uint64_t warm_up_ops(unsigned cores);

/// The end state of one LLC warm-up, built by warm() and copied into each
/// SystemSim of its class: the LLC image (counters cleared) and the
/// stimulus source positioned after the warm-up's ops.
struct WarmState {
  WarmKey key;
  std::string workload;  ///< trace::WorkloadDesc::name
  unsigned cores;
  std::uint64_t seed;    ///< SimOptions::seed
  cache::Cache llc;
  trace::SyntheticSource source;
};

/// Runs only the LLC warm-up of (scheme, workload, cpu, opts) and returns
/// its end state, which every scheme of the same warm-up class shares.
/// Builds just the scheme's MaintRule, an LLC and the synthetic source;
/// SystemSim::run warms a cold system with the same code.  Throws
/// std::invalid_argument unless shares_warm_up(opts).
WarmState warm(const ecc::SchemeDesc& scheme,
               const trace::WorkloadDesc& workload, const CpuConfig& cpu,
               const SimOptions& opts);

/// One workload on one memory system.
///
/// A SystemSim is fully self-contained -- it owns its DRAM model, caches,
/// cores, and RNG state (seeded from SimOptions::seed), and touches no
/// globals -- so independent instances may run concurrently on different
/// threads (the runner's fan-out relies on this).  A single instance is
/// not thread-safe and not reusable: construct, run() once, read the
/// result.  A shared WarmState is only read, and only while constructing.
class SystemSim {
 public:
  /// Builds the system: DRAM channels per `scheme`'s organization, an
  /// 8 MB LLC (plus the optional dedicated ECC cache), the stimulus source
  /// for `workload` (synthetic generators, or .ecctrace replay/recording
  /// per SimOptions), and the ECC Parity layout when the scheme uses it.
  /// With `warm`, the LLC and the source start from that warm-up state
  /// instead, and run() skips its own warm-up; `warm` must come from
  /// warm() for this scheme's class, workload, seed and core count, with
  /// shares_warm_up(opts) true.
  /// Throws std::invalid_argument if the scheme's memory-line size is not
  /// 64B times a power of two, if the workload's footprint (all cores' private
  /// copies, or the one shared PARSEC footprint) holds more memory lines
  /// than the memory, or if `warm` does not fit this run;
  /// tracefile::TraceError on a bad or mismatched trace_in.
  SystemSim(const ecc::SchemeDesc& scheme, const trace::WorkloadDesc& workload,
            const CpuConfig& cpu = CpuConfig{},
            const SimOptions& opts = SimOptions{},
            const WarmState* warm = nullptr);

  /// Runs to completion and returns the metrics: warms the LLC to steady
  /// state (no timing side effects) unless constructed from a WarmState,
  /// simulates until SimOptions::target_instructions commit, then drains
  /// outstanding traffic so energy accounting is complete.  Deterministic:
  /// equal configuration and seed give bit-identical results on every run
  /// and thread, with or without a shared WarmState.  Throws
  /// std::runtime_error rather than return a truncated or aliased run:
  /// when max_mem_cycles elapse first, when the drain does not finish
  /// within its guard, or when a replayed op lies beyond the memory.
  RunResult run();

 private:
  static constexpr std::uint64_t kNotStalled = ~std::uint64_t{0};
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// One core, visited by core_cycle only on CPU cycle `due`.  When a
  /// visit's budget runs out inside an op's gap, the gap's whole cycles
  /// are counted into `committed` at once and `due` skips past them, so
  /// `committed` runs ahead of the cycle; committed_by() reads it.  A due
  /// read refused for a full MLP window puts the core to sleep (`due` ==
  /// kNever) until wake() runs.  Only handle_completions lowering
  /// `outstanding_reads` and wake_on_insert of `waiting_op->line` wake it;
  /// every other event leaves the refusal standing.  A wake means
  /// "retry": the op may be refused again, and the core sleeps again.
  struct Core {
    std::uint64_t committed = 0;
    std::uint32_t gap_remaining = 0;
    std::optional<trace::MemOp> waiting_op;  ///< next op, issued once due
    unsigned outstanding_reads = 0;
    std::uint64_t due = 0;  ///< CPU cycle of the next visit
    /// CPU cycle of the stall's first refusal; kNotStalled when the core
    /// is not stalled.  The stall is counted when the op issues or the
    /// measured phase ends, so sleeping cycles cost nothing.
    std::uint64_t stalled_since = kNotStalled;
  };

  // Memory request plumbing -------------------------------------------------
  struct PendingReq {
    dram::DramAddress addr;
    bool is_write;
    dram::LineClass line_class;
    std::uint64_t id;
  };

  /// The cold half of the run's fatal checks: throws std::runtime_error
  /// naming the workload, scheme and memory cycle.
  [[noreturn, gnu::cold]] void fail(const std::string& what) const;

  /// Visits the cores due on this CPU cycle, in index order.
  void cpu_cycle();
  void core_cycle(unsigned c);
  /// Runs the LLC access for one measured-phase op; returns false if the
  /// core must retry (a read that misses while every MLP slot is taken).
  /// A refusal has no side effects.  A full DRAM queue never refuses an
  /// op: send_or_queue parks the request in pending_ and drain_pending
  /// retries it.  An op beyond the memory fails the run.
  bool execute_op(unsigned c, const trace::MemOp& op);
  /// Makes a sleeping core due on the current CPU cycle.
  void wake(Core& core) {
    if (core.due != kNever) return;
    core.due = cpu_cycle_;
    next_due_ = std::min(next_due_, cpu_cycle_);
    --asleep_cores_;
  }
  /// Wakes every sleeping core whose refused read is for `line`; called
  /// wherever a data line may enter the LLC.  ECC and XOR keys carry tag
  /// bits no data line has, so their inserts never wake a core.
  void wake_on_insert(std::uint64_t line) {
    if (asleep_cores_ == 0) return;
    for (Core& core : cores_) {
      if (core.due == kNever && core.waiting_op->line == line) wake(core);
    }
  }
  /// Instructions `core` has committed in the CPU cycles before `cycle`:
  /// `committed` less the gap cycles it counted ahead.
  std::uint64_t committed_by(const Core& core, std::uint64_t cycle) const {
    if (core.due == kNever || core.due <= cycle) return core.committed;
    return core.committed - (core.due - cycle) * cpu_.width;
  }
  /// Instructions committed across all cores in the CPU cycles run so far.
  std::uint64_t committed_instructions() const;
  /// Adds a finished (or, at the end of the measured phase, unfinished)
  /// stall's refused cycles to cpu.stalled_core_cycles.
  void end_stall(Core& core);
  /// The MaintRule's request handler: decodes each request it reports
  /// (ecc_line_address for an ECC/XOR key), draws its id and sends it.
  auto to_memory() {
    return [this](std::uint64_t line, bool is_write, dram::LineClass lc) {
      send_or_queue(PendingReq{lc == dram::LineClass::kData
                                   ? mem_.map().decode(line)
                                   : ecc_line_address(line),
                               is_write, lc, next_id_++});
    };
  }
  /// Demand read for a memory line; registers the waiting core (or none).
  void request_read(std::uint64_t memline, int core);
  void send_or_queue(const PendingReq& req);
  void drain_pending();
  void handle_completions();

  /// The memory address of the ECC/parity line behind an ECC cacheline key.
  dram::DramAddress ecc_line_address(std::uint64_t key) const;

  /// The cache holding ECC/XOR lines: the LLC itself, or the optional
  /// dedicated ECC cache.
  cache::Cache& ecc_cache() {
    return dedicated_ecc_cache_ ? *dedicated_ecc_cache_ : llc_;
  }

  // Observability (SimOptions::stats) ---------------------------------------
  /// Registers components in the collector's registry; no-op when stats
  /// are off, so the members below stay null and the hot paths pay one
  /// predictable branch.
  void attach_stats();
  /// Final epoch sample, gauge capture, and the derived per-channel
  /// bandwidth / EPI epoch series.
  void finalize_stats();

  /// Creates and attaches the per-channel protocol checkers when
  /// SimOptions::protocol_check or ECCSIM_CHECK asks for them.
  void attach_protocol_checkers();

  /// Builds the stimulus source per SimOptions: a copy of `warm`'s
  /// post-warm-up source when given, else synthetic generators or
  /// .ecctrace replay, optionally tee'd through a pre-LLC recorder, plus
  /// the post-LLC writer when asked for.  Throws tracefile::TraceError on
  /// a bad/mismatched trace_in.
  void build_source(const trace::WorkloadDesc& workload,
                    const WarmState* warm);
  /// Flushes footers on any open trace writers; throws TraceError on I/O
  /// failure so a truncated recording cannot pass silently.
  void close_trace_outputs();

  ecc::SchemeDesc scheme_;
  CpuConfig cpu_;
  SimOptions opts_;
  /// One checker per channel (empty when checking is off).  Declared
  /// before mem_ so the observers strictly outlive the channels, which
  /// emit residual refresh commands from finalize().
  std::vector<std::unique_ptr<check::ProtocolChecker>> checkers_;
  dram::MemorySystem mem_;
  MaintRule rule_;
  cache::Cache llc_;
  std::unique_ptr<cache::Cache> dedicated_ecc_cache_;
  std::vector<Core> cores_;
  unsigned asleep_cores_ = 0;
  std::uint64_t cpu_cycle_ = 0;  ///< measured-phase CPU cycles run
  std::uint64_t next_due_ = 0;   ///< earliest Core::due
  /// Stimulus: one MemOp stream per core (synthetic, replay, or recording
  /// tee).  Owned here; never null after construction.
  std::unique_ptr<trace::TraceSource> source_;
  /// Non-owning view of source_ when it is a pre-LLC recording tee (for
  /// counters and the end-of-run close).
  tracefile::RecordingSource* recording_ = nullptr;
  /// Non-owning view of source_ when it is a replay (for counters).
  tracefile::ReplaySource* replay_ = nullptr;
  /// Post-LLC capture: every DRAM request send_or_queue accepts after
  /// warmup, in issue order.
  std::unique_ptr<tracefile::TraceWriter> post_writer_;
  bool warmed_ = false;  ///< the LLC is warm: run() skips the warm-up
  std::uint64_t next_id_ = 1;
  std::deque<PendingReq> pending_;
  // In-flight demand reads: memline -> cores waiting on it.
  std::unordered_map<std::uint64_t, std::vector<int>> mshr_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_to_memline_;

  // Observability state: all null/zero when SimOptions::stats is unset.
  stats::Registry* streg_ = nullptr;
  stats::Tracer* tracer_ = nullptr;
  stats::Counter* slow_path_hits_ = nullptr;
  stats::Counter* stalled_core_cycles_ = nullptr;
  std::uint32_t ecc_trace_tid_ = 0;
  std::uint64_t epoch_cycles_ = 0;
  std::uint64_t next_epoch_ = 0;
};

/// Convenience: run one (scheme, scale, workload) experiment -- the unit
/// of work the bench sweep fans out, one call per grid cell.
///
/// \param scheme         which Table II scheme to instantiate
/// \param scale          dual- or quad-channel-equivalent system sizing
/// \param workload_name  one of trace::paper_workloads() (throws
///                       std::out_of_range if unknown)
/// \param opts           run-control knobs; opts.seed selects the
///                       workload-stimulus RNG stream
RunResult run_experiment(ecc::SchemeId scheme, ecc::SystemScale scale,
                         const std::string& workload_name,
                         const SimOptions& opts = SimOptions{});

}  // namespace eccsim::sim
