#include "sim/system.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace eccsim::sim {

namespace {

/// ECCSIM_CHECK set to anything but "0" enables the protocol checker for
/// every run in the process (the CI sweeps use this).
bool protocol_check_env() {
  const char* v = std::getenv("ECCSIM_CHECK");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

}  // namespace

MaintRule::MaintRule(const ecc::SchemeDesc& scheme,
                     const dram::MemGeometry& geom,
                     const std::vector<std::uint32_t>& faulty_banks)
    : maint_(scheme.maint),
      ecc_line_coverage_(scheme.ecc_line_coverage),
      memline_shift_(
          static_cast<unsigned>(std::countr_zero(scheme.line_bytes / 64))),
      total_data_lines_(geom.total_data_lines()),
      map_(geom) {
  if (scheme.line_bytes % 64 != 0 ||
      !std::has_single_bit(scheme.line_bytes)) {
    throw std::invalid_argument(
        "SystemSim: line size must be 64B times a power of two");
  }
  if (scheme.uses_ecc_parity) {
    parity_layout_.emplace(geom, static_cast<unsigned>(
                                     scheme.correction_ratio *
                                     scheme.line_bytes));
    faulty_banks_ = faulty_banks;
  }
}

std::string MaintRule::beyond_memory(std::uint64_t memline) const {
  return "memory line " + std::to_string(memline) +
         " lies beyond the memory's " + std::to_string(total_data_lines_) +
         " data lines";
}

std::uint64_t MaintRule::ecc_cacheline_key(std::uint64_t memline) const {
  if (parity_layout_) return parity_layout_->xor_cacheline_key(memline);
  return kEccKeyTag | (memline / ecc_line_coverage_);
}

std::optional<std::uint32_t> MaintRule::faulty_bank(
    std::uint64_t memline) const {
  const dram::DramAddress a = map_.decode(memline);
  const std::uint32_t key = (a.channel << 16) | (a.rank << 8) | a.bank;
  return std::ranges::find(faulty_banks_, key) != faulty_banks_.end()
             ? std::optional(key)
             : std::nullopt;
}

std::uint64_t warm_up_ops(unsigned cores) {
  const cache::CacheConfig llc;
  return 3 * (llc.size_bytes / llc.line_bytes) / cores * cores;
}

namespace {

/// Warms `llc` to steady state before measuring (the paper warms caches
/// for a billion instructions, Sec. IV-B), so that the measured phase's
/// evictions -- and ECC-maintenance traffic -- reflect steady state: runs
/// warm_up_ops of `source`'s ops, op k from core k % cores as a shared
/// (PARSEC-style) footprint will run, untimed, through `llc` and
/// `ecc_cache` (`llc` unless ECC lines have their own cache) under `rule`,
/// drops every memory request and clears both caches' counters.  The ops
/// come a block of whole rounds (~kBlockOps ops) at a time from one
/// next_rounds() call; each op's LLC set block is prefetched kAhead ops
/// before it runs.  Throws std::runtime_error on an op beyond the memory.
void warm_up(trace::TraceSource& source, const MaintRule& rule,
             cache::Cache& llc, cache::Cache& ecc_cache) {
  constexpr std::size_t kBlockOps = 512;  // 8 KiB of ops
  constexpr std::size_t kAhead = 8;
  const auto drop = [](std::uint64_t, bool, dram::LineClass) {};
  // Tested before the op's is_write, a data-dependent branch that would
  // otherwise run (and mispredict) in front of this loop-invariant one.
  const bool degraded = rule.has_faulty_banks();
  const unsigned cores = source.cores();
  const std::uint64_t rounds = warm_up_ops(cores) / cores;
  const std::size_t block_rounds = std::max<std::size_t>(1, kBlockOps / cores);
  std::vector<trace::MemOp> block(block_rounds * cores);
  for (std::uint64_t done = 0; done < rounds;) {
    const std::size_t r = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_rounds, rounds - done));
    const std::size_t n = r * cores;
    source.next_rounds(block.data(), r);
    done += r;
    for (std::size_t k = 0; k < std::min(kAhead, n); ++k) {
      llc.prefetch(block[k].line);
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (k + kAhead < n) llc.prefetch(block[k + kAhead].line);
      const trace::MemOp& op = block[k];
      const std::uint64_t memline = rule.memline_of(op.line);
      if (memline >= rule.total_data_lines()) {
        throw std::runtime_error("LLC warm-up of " + source.workload().name +
                                 ": " + rule.beyond_memory(memline));
      }
      rule.evict(ecc_cache,
                 llc.access(op.line, op.is_write, cache::LineKind::kData),
                 drop);
      if (degraded && !op.is_write) {
        rule.degraded_read(ecc_cache, memline, drop);
      }
    }
  }
  llc.reset_stats();
  ecc_cache.reset_stats();
}

}  // namespace

WarmKey warm_key(const ecc::SchemeDesc& scheme, dram::Generation gen) {
  WarmKey key;
  key.maint = scheme.maint;
  key.uses_ecc_parity = scheme.uses_ecc_parity;
  if (scheme.maint == ecc::MaintTraffic::kNone) return key;
  key.line_bytes = scheme.line_bytes;
  if (scheme.uses_ecc_parity) {
    key.geometry = scheme.mem_config(gen).geometry();
  } else {
    key.ecc_line_coverage = scheme.ecc_line_coverage;
  }
  return key;
}

bool shares_warm_up(const SimOptions& opts) {
  return opts.trace_in.empty() && opts.trace_out.empty() &&
         opts.faulty_banks.empty() && opts.dedicated_ecc_cache_bytes == 0;
}

std::vector<std::vector<std::size_t>> warm_classes(
    const std::vector<ecc::SchemeDesc>& schemes, dram::Generation gen) {
  std::vector<WarmKey> keys;
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const WarmKey key = warm_key(schemes[i], gen);
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      classes.push_back({i});
    } else {
      classes[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  return classes;
}

SystemSim::SystemSim(const ecc::SchemeDesc& scheme,
                     const trace::WorkloadDesc& workload,
                     const CpuConfig& cpu, const SimOptions& opts,
                     const WarmState* warm)
    : scheme_(scheme),
      cpu_(cpu),
      opts_(opts),
      mem_([&] {
        dram::MemSystemConfig cfg = scheme.mem_config(opts.dram_gen);
        cfg.powerdown_enabled = opts.powerdown_enabled;
        cfg.row_policy = opts.row_policy;
        return cfg;
      }()),
      rule_(scheme, mem_.map().geometry(), opts.faulty_banks),
      llc_(warm != nullptr ? warm->llc : cache::Cache(cache::CacheConfig{})),
      warmed_(warm != nullptr) {
  if (opts.dedicated_ecc_cache_bytes != 0) {
    cache::CacheConfig ecc_cfg;
    ecc_cfg.size_bytes = opts.dedicated_ecc_cache_bytes;
    ecc_cfg.ways = 8;
    dedicated_ecc_cache_ = std::make_unique<cache::Cache>(ecc_cfg);
  }
  // Every op's memory line must lie inside the memory: then no address
  // wraps at its end, and no two footprint lines share one.  The count
  // includes the 128B-pair sibling (line ^ 1) one past an odd footprint.
  const std::uint64_t lines64 =
      (workload.multithreaded ? 1 : cpu_.cores) *
      std::max<std::uint64_t>(1, workload.footprint_bytes / 64);
  const std::uint64_t memlines =
      rule_.memline_of(lines64 + (lines64 & 1) - 1) + 1;
  if (memlines > rule_.total_data_lines()) {
    throw std::invalid_argument(
        "SystemSim: workload '" + workload.name + "' spans " +
        std::to_string(memlines) + " memory lines but the memory holds " +
        std::to_string(rule_.total_data_lines()));
  }
  if (warm != nullptr &&
      (!shares_warm_up(opts) || warm->key != warm_key(scheme, opts.dram_gen) ||
       warm->workload != workload.name || warm->cores != cpu_.cores ||
       warm->seed != opts.seed)) {
    throw std::invalid_argument("SystemSim: warm-up state of " +
                                warm->workload +
                                " does not fit this run's class, workload, "
                                "seed or core count");
  }
  cores_.resize(cpu_.cores);
  build_source(workload, warm);
  attach_protocol_checkers();
  attach_stats();
}

WarmState warm(const ecc::SchemeDesc& scheme,
               const trace::WorkloadDesc& workload, const CpuConfig& cpu,
               const SimOptions& opts) {
  if (!shares_warm_up(opts)) {
    throw std::invalid_argument("sim::warm: replay, recording, faulty-bank "
                                "and dedicated-ECC-cache runs warm per run");
  }
  const MaintRule rule(scheme, scheme.mem_config(opts.dram_gen).geometry(), {});
  WarmState state{warm_key(scheme, opts.dram_gen), workload.name, cpu.cores,
                  opts.seed, cache::Cache(cache::CacheConfig{}),
                  trace::SyntheticSource(workload, cpu.cores, opts.seed)};
  warm_up(state.source, rule, state.llc, state.llc);
  return state;
}

void SystemSim::build_source(const trace::WorkloadDesc& workload,
                             const WarmState* warm) {
  if (warm != nullptr) {  // shares_warm_up: no replay, no recording
    source_ = std::make_unique<trace::SyntheticSource>(warm->source);
    return;
  }
  if (!opts_.trace_in.empty()) {
    auto replay = std::make_unique<tracefile::ReplaySource>(opts_.trace_in);
    // The trace must have been recorded for this exact configuration: the
    // workload name pins the calibrated descriptor (and thus the run's
    // label) and the core count pins the per-core demultiplexing.
    if (replay->workload().name != workload.name) {
      throw tracefile::TraceError(
          "ecctrace: " + opts_.trace_in + " records workload '" +
          replay->workload().name + "' but the run asked for '" +
          workload.name + "'");
    }
    if (replay->cores() != cpu_.cores) {
      throw tracefile::TraceError(
          "ecctrace: " + opts_.trace_in + " records " +
          std::to_string(replay->cores()) + " cores but the run has " +
          std::to_string(cpu_.cores));
    }
    replay_ = replay.get();
    source_ = std::move(replay);
  } else {
    source_ = std::make_unique<trace::SyntheticSource>(workload, cpu_.cores,
                                                       opts_.seed);
  }
  if (!opts_.trace_out.empty()) {
    if (opts_.trace_point == tracefile::CapturePoint::kPreLlc) {
      auto rec = std::make_unique<tracefile::RecordingSource>(
          std::move(source_), opts_.trace_out, opts_.seed);
      recording_ = rec.get();
      source_ = std::move(rec);
    } else {
      tracefile::TraceMeta meta;
      meta.point = tracefile::CapturePoint::kPostLlc;
      meta.cores = cpu_.cores;
      meta.seed = opts_.seed;
      meta.workload = workload.name;
      post_writer_ =
          std::make_unique<tracefile::TraceWriter>(opts_.trace_out, meta);
    }
  }
}

void SystemSim::close_trace_outputs() {
  if (recording_ != nullptr) recording_->writer().close();
  if (post_writer_) post_writer_->close();
}

void SystemSim::attach_protocol_checkers() {
  if (!opts_.protocol_check && !protocol_check_env()) return;
  const dram::ChannelConfig cc = mem_.channel_config();
  checkers_.reserve(mem_.num_channels());
  for (std::uint32_t c = 0; c < mem_.num_channels(); ++c) {
    checkers_.push_back(std::make_unique<check::ProtocolChecker>(
        cc, scheme_.name + ".ch" + std::to_string(c)));
    mem_.set_command_observer(c, checkers_.back().get());
  }
}

void SystemSim::attach_stats() {
  if (!opts_.stats || !opts_.stats->config().enabled) return;
  stats::Registry& reg = opts_.stats->registry();
  streg_ = &reg;
  tracer_ = opts_.stats->tracer();
  epoch_cycles_ = opts_.stats->config().epoch_cycles;
  next_epoch_ = epoch_cycles_;
  reg.set_epoch_cycles(epoch_cycles_);

  mem_.attach_stats(reg, tracer_);
  llc_.attach_stats(reg, "llc");
  if (dedicated_ecc_cache_) dedicated_ecc_cache_->attach_stats(reg, "ecc_cache");
  reg.gauge("cpu.committed_instructions", [this](std::uint64_t) {
    return static_cast<double>(committed_instructions());
  });
  stalled_core_cycles_ = reg.counter("cpu.stalled_core_cycles");
  if (scheme_.uses_ecc_parity) {
    slow_path_hits_ = reg.counter("eccparity.fig6_slow_path_hits");
  }
  if (recording_ != nullptr) {
    reg.gauge("tracefile.record.ops", [this](std::uint64_t) {
      return static_cast<double>(recording_->writer().counters().ops);
    });
    reg.gauge("tracefile.record.file_bytes", [this](std::uint64_t) {
      return static_cast<double>(recording_->writer().counters().file_bytes);
    });
  }
  if (post_writer_) {
    reg.gauge("tracefile.post.ops", [this](std::uint64_t) {
      return static_cast<double>(post_writer_->counters().ops);
    });
    reg.gauge("tracefile.post.file_bytes", [this](std::uint64_t) {
      return static_cast<double>(post_writer_->counters().file_bytes);
    });
  }
  if (replay_ != nullptr) {
    reg.gauge("tracefile.replay.ops", [this](std::uint64_t) {
      return static_cast<double>(replay_->ops_replayed());
    });
    reg.gauge("tracefile.replay.chunks_decoded", [this](std::uint64_t) {
      return static_cast<double>(replay_->reader_counters().chunks_decoded);
    });
  }
  if (tracer_) {
    // Tracks 0..channels-1 are the DRAM channels; the next one carries the
    // manager-level ECC-parity instant events.
    ecc_trace_tid_ = mem_.num_channels();
    tracer_->set_thread_name(ecc_trace_tid_, "eccparity");
  }
}

void SystemSim::finalize_stats() {
  if (!streg_) return;
  stats::Registry& reg = *streg_;
  reg.finalize(mem_.cycle());

  const auto& marks = reg.epoch_marks();
  if (marks.empty()) return;
  std::vector<double> epoch_len(marks.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    epoch_len[i] = static_cast<double>(marks[i] - prev);
    prev = marks[i];
  }
  const std::vector<double>* instr =
      reg.epoch_series("cpu.committed_instructions");

  // Derived per-epoch series (Figs. 14/12 over time): per-channel data-bus
  // utilization and memory energy per instruction.
  std::vector<double> total_energy(marks.size(), 0.0);
  for (std::uint32_t c = 0; c < mem_.num_channels(); ++c) {
    const std::string ch = "dram.ch" + std::to_string(c);
    if (const auto* busy = reg.epoch_series(ch + ".busy_data_cycles")) {
      std::vector<double> bw(busy->size(), 0.0);
      for (std::size_t i = 0; i < bw.size(); ++i) {
        bw[i] = epoch_len[i] > 0 ? (*busy)[i] / epoch_len[i] : 0.0;
      }
      reg.add_series("derived." + ch + ".bandwidth_utilization",
                     std::move(bw));
    }
    if (const auto* pj = reg.epoch_series(ch + ".energy.total_pj")) {
      for (std::size_t i = 0; i < pj->size(); ++i) total_energy[i] += (*pj)[i];
      if (instr) {
        std::vector<double> epi(pj->size(), 0.0);
        for (std::size_t i = 0; i < epi.size(); ++i) {
          epi[i] = (*instr)[i] > 0 ? (*pj)[i] / (*instr)[i] : 0.0;
        }
        reg.add_series("derived." + ch + ".epi_pj", std::move(epi));
      }
    }
  }
  if (instr) {
    std::vector<double> epi(total_energy.size(), 0.0);
    for (std::size_t i = 0; i < epi.size(); ++i) {
      epi[i] = (*instr)[i] > 0 ? total_energy[i] / (*instr)[i] : 0.0;
    }
    reg.add_series("derived.epi_pj", std::move(epi));
  }
}

dram::DramAddress SystemSim::ecc_line_address(std::uint64_t key) const {
  const dram::MemGeometry& geom = mem_.map().geometry();
  if (const auto& layout = rule_.parity_layout()) {
    // Invert the XOR key: (plane, stripe, slot-bucket) -> the primary
    // group's parity line.  (Leftover lines share the bucket's parity
    // address in this traffic model; the functional manager keeps them
    // exact.)
    return layout->parity_line_address(layout->group_for_xor_key(key));
  }
  // Tiered baselines (LOT-ECC, Multi-ECC): the tier-2/correction line lives
  // in the reserved top rows of the same bank as the lines it covers.
  const std::uint64_t first_line = (key & ~MaintRule::kEccKeyTag) *
                                   scheme_.ecc_line_coverage;
  dram::DramAddress a = mem_.map().decode(
      std::min<std::uint64_t>(first_line, geom.total_data_lines() - 1));
  const std::uint64_t reserved = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(geom.rows_per_bank) *
             scheme_.correction_ratio));
  a.row = geom.rows_per_bank - 1 - (a.row % reserved);
  return a;
}

void SystemSim::send_or_queue(const PendingReq& req) {
  if (post_writer_) {
    // Post-LLC capture point: every request the memory system will see, in
    // issue order (drain_pending retries bypass this path, so a queued
    // request is recorded exactly once).
    post_writer_->append(tracefile::PostOp{mem_.cycle(), req.addr,
                                           req.is_write, req.line_class});
  }
  if (!mem_.enqueue_addr(req.addr, req.is_write, req.line_class, req.id)) {
    pending_.push_back(req);
  }
}

void SystemSim::drain_pending() {
  const std::size_t n = pending_.size();
  for (std::size_t i = 0; i < n && !pending_.empty(); ++i) {
    PendingReq req = pending_.front();
    pending_.pop_front();
    if (!mem_.enqueue_addr(req.addr, req.is_write, req.line_class, req.id)) {
      pending_.push_back(req);
    }
  }
}

void SystemSim::request_read(std::uint64_t memline, int core) {
  auto it = mshr_.find(memline);
  if (it != mshr_.end()) {
    if (core >= 0) it->second.push_back(core);
    return;
  }
  const std::uint64_t id = next_id_++;
  id_to_memline_[id] = memline;
  auto& waiters = mshr_[memline];
  if (core >= 0) waiters.push_back(core);
  send_or_queue(PendingReq{mem_.map().decode(memline), false,
                           dram::LineClass::kData, id});
}

bool SystemSim::execute_op(unsigned c, const trace::MemOp& op) {
  Core& core = cores_[c];
  // A read that misses occupies an MLP slot: refuse it (and stall the
  // core) if none is free.  The slot count is tested first: it usually
  // rules out the stall without a set scan.
  if (!op.is_write && core.outstanding_reads >= cpu_.mlp &&
      !llc_.contains(op.line)) {
    return false;
  }
  const std::uint64_t memline = rule_.memline_of(op.line);
  if (memline >= rule_.total_data_lines()) fail(rule_.beyond_memory(memline));
  // A write allocates; its fetch-on-write read is non-blocking.
  const auto r = llc_.access(op.line, op.is_write, cache::LineKind::kData);
  if (!r.hit) wake_on_insert(op.line);
  rule_.evict(ecc_cache(), r, to_memory());
  if (!r.hit) {
    if (!op.is_write) ++core.outstanding_reads;
    request_read(memline, op.is_write ? -1 : static_cast<int>(c));
  }
  if (op.is_write) return true;
  const auto path = rule_.degraded_read(ecc_cache(), memline, to_memory());
  if (!path.taken) return true;
  if (slow_path_hits_) slow_path_hits_->inc();
  if (tracer_) {
    tracer_->instant("eccparity", "fig6_slow_path", mem_.cycle(),
                     ecc_trace_tid_,
                     {{"bank", static_cast<double>(path.bank)},
                      {"ecc_cached", path.ecc_cached ? 1.0 : 0.0}});
  }
  return true;
}

void SystemSim::core_cycle(unsigned c) {
  Core& core = cores_[c];
  unsigned budget = cpu_.width;
  while (budget > 0) {
    if (!core.waiting_op) {
      const trace::MemOp next = source_->next(c);
      core.gap_remaining = next.gap;
      core.waiting_op = next;
    }
    if (core.gap_remaining > 0) {
      const unsigned take = static_cast<unsigned>(std::min<std::uint64_t>(
          budget, core.gap_remaining));
      core.committed += take;
      core.gap_remaining -= take;
      budget -= take;
      continue;
    }
    // The memory op is due.
    if (!execute_op(c, *core.waiting_op)) {  // stall: sleep until a wake
      if (core.stalled_since == kNotStalled) core.stalled_since = cpu_cycle_;
      core.due = kNever;
      ++asleep_cores_;
      return;
    }
    if (core.stalled_since != kNotStalled) end_stall(core);
    ++core.committed;  // the memory instruction itself
    --budget;
    core.waiting_op.reset();
  }
  // The budget ran out.  The gap's whole cycles that follow would only
  // count down: commit them now and come back on the cycle after them,
  // which starts with the gap's remainder (if any) and then the op.
  const std::uint32_t skipped = core.gap_remaining / cpu_.width;
  core.gap_remaining -= skipped * cpu_.width;
  core.committed += std::uint64_t{skipped} * cpu_.width;
  core.due = cpu_cycle_ + 1 + skipped;
}

void SystemSim::cpu_cycle() {
  if (next_due_ <= cpu_cycle_) {
    for (unsigned c = 0; c < cpu_.cores; ++c) {
      if (cores_[c].due <= cpu_cycle_) core_cycle(c);
    }
    // A visit may have woken a lower-numbered core for this cycle: it is
    // visited on the next one, as a per-cycle scan would.
    next_due_ = kNever;
    for (const Core& core : cores_) next_due_ = std::min(next_due_, core.due);
  }
  ++cpu_cycle_;
}

std::uint64_t SystemSim::committed_instructions() const {
  std::uint64_t total = 0;
  for (const Core& core : cores_) total += committed_by(core, cpu_cycle_);
  return total;
}

void SystemSim::end_stall(Core& core) {
  // Every cycle since the first refusal was refused, or slept through
  // because its retry would have been.
  if (stalled_core_cycles_) {
    stalled_core_cycles_->inc(cpu_cycle_ - core.stalled_since);
  }
  core.stalled_since = kNotStalled;
}

void SystemSim::handle_completions() {
  auto& done = mem_.completions();
  for (const auto& comp : done) {
    if (comp.is_write) continue;
    const auto it = id_to_memline_.find(comp.id);
    if (it == id_to_memline_.end()) continue;  // ECC read: nothing to fill
    const std::uint64_t memline = it->second;
    id_to_memline_.erase(it);
    // Fill all 64B siblings of the memory line (128B-line prefetch effect).
    const std::uint64_t siblings = scheme_.line_bytes / 64;
    for (std::uint64_t i = 0; i < siblings; ++i) {
      const std::uint64_t line = memline * siblings + i;
      const auto r = llc_.fill(line);
      wake_on_insert(line);
      rule_.evict(ecc_cache(), r, to_memory());
    }
    const auto w = mshr_.find(memline);
    if (w != mshr_.end()) {
      for (const int c : w->second) {  // request_read lists cores only
        Core& core = cores_[static_cast<unsigned>(c)];
        if (core.outstanding_reads > 0) {
          --core.outstanding_reads;
          wake(core);
        }
      }
      mshr_.erase(w);
    }
  }
  done.clear();
}

RunResult SystemSim::run() {
  if (!warmed_) warm_up(*source_, rule_, llc_, ecc_cache());

  std::uint64_t committed_total = 0;
  std::uint64_t scrub_cursor = 0;
  while (committed_total < opts_.target_instructions &&
         mem_.cycle() < opts_.max_mem_cycles) {
    mem_.tick();
    handle_completions();
    drain_pending();
    if (opts_.scrub_read_interval != 0 &&
        mem_.cycle() % opts_.scrub_read_interval == 0) {
      // Background scrubber: sweep the data space one line per interval
      // (Sec. VI-C).  Scrub reads are tagged as ECC traffic so their
      // bandwidth cost is visible in the statistics.
      send_or_queue(
          PendingReq{mem_.map().decode(scrub_cursor %
                                       rule_.total_data_lines()),
                     false, dram::LineClass::kEccOther, next_id_++});
      ++scrub_cursor;
    }
    for (unsigned k = 0; k < cpu_.cpu_cycles_per_mem_cycle; ++k) {
      cpu_cycle();
    }
    if (epoch_cycles_ != 0 && mem_.cycle() >= next_epoch_) {
      streg_->sample_epoch(mem_.cycle());
      next_epoch_ += epoch_cycles_;
    }
    if ((mem_.cycle() & 0x3FF) == 0) committed_total = committed_instructions();
  }
  for (Core& core : cores_) {
    if (core.stalled_since != kNotStalled) end_stall(core);
  }
  const std::uint64_t run_cycles = mem_.cycle();
  const std::uint64_t instructions = committed_instructions();
  if (instructions < opts_.target_instructions) {
    fail("max_mem_cycles reached with " + std::to_string(instructions) +
         " of " + std::to_string(opts_.target_instructions) +
         " instructions committed");
  }

  // Drain outstanding traffic so energy accounting is complete.
  constexpr std::uint64_t kDrainGuard = 200'000;
  std::uint64_t guard = 0;
  while ((mem_.outstanding() > 0 || !pending_.empty()) &&
         guard < kDrainGuard) {
    mem_.tick();
    handle_completions();
    drain_pending();
    if (epoch_cycles_ != 0 && mem_.cycle() >= next_epoch_) {
      streg_->sample_epoch(mem_.cycle());
      next_epoch_ += epoch_cycles_;
    }
    ++guard;
  }
  if (mem_.outstanding() > 0 || !pending_.empty()) {
    fail("drain still has " +
         std::to_string(mem_.outstanding() + pending_.size()) +
         " requests outstanding after " + std::to_string(kDrainGuard) +
         " cycles");
  }

  RunResult result;
  result.scheme = scheme_.name;
  result.workload = source_->workload().name;
  result.instructions = instructions;
  result.mem_cycles = run_cycles;
  result.mem = mem_.finalize();
  // finalize() has emitted the residual refresh commands, so the checkers
  // have now audited the complete command stream.  In kCount mode (Release)
  // violations accumulate silently until this boundary; fail the run here
  // rather than return results from a protocol-violating simulation.
  std::uint64_t protocol_violations = 0;
  std::string protocol_report;
  for (const auto& checker : checkers_) {
    protocol_violations += checker->violation_count();
    if (checker->violation_count() > 0) protocol_report += checker->report();
  }
  if (protocol_violations > 0) {
    throw std::runtime_error("DRAM protocol violations detected:\n" +
                             protocol_report);
  }
  result.llc = llc_.stats();
  const double instr = static_cast<double>(result.instructions);
  const double cpu_cycles =
      static_cast<double>(run_cycles) * cpu_.cpu_cycles_per_mem_cycle;
  result.ipc = instr / cpu_cycles;
  result.epi_pj = result.mem.energy.total_pj() / instr;
  result.dynamic_epi_pj = result.mem.energy.dynamic_pj() / instr;
  result.background_epi_pj =
      (result.mem.energy.background_pj + result.mem.energy.refresh_pj) /
      instr;
  result.mapi =
      static_cast<double>(result.mem.accesses_64b(scheme_.line_bytes)) /
      instr;
  const double burst = mem_.config().device.timing.tBurst;
  // Utilization averages over every independently-scheduled data bus
  // (physical channels times sub-channels; equal for DDR3/DDR4).
  result.bandwidth_utilization =
      static_cast<double>(result.mem.reads + result.mem.writes) * burst /
      (static_cast<double>(mem_.num_channels()) *
       static_cast<double>(run_cycles));
  result.avg_read_latency = result.mem.avg_read_latency;
  // Seal trace outputs before the final stats sample so the tracefile.*
  // gauges capture footer-inclusive sizes (and a failed flush aborts the
  // run instead of leaving a silently truncated file).
  close_trace_outputs();
  finalize_stats();
  return result;
}

void SystemSim::fail(const std::string& what) const {
  throw std::runtime_error("SystemSim: " + source_->workload().name + " on " +
                           scheme_.name + " at memory cycle " +
                           std::to_string(mem_.cycle()) + ": " + what);
}

RunResult run_experiment(ecc::SchemeId scheme, ecc::SystemScale scale,
                         const std::string& workload_name,
                         const SimOptions& opts) {
  const ecc::SchemeDesc desc = ecc::make_scheme(scheme, scale);
  SystemSim sim(desc, trace::workload_by_name(workload_name), CpuConfig{},
                opts);
  return sim.run();
}

}  // namespace eccsim::sim
