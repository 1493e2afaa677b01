// The multi-channel memory system: N independent channels behind one
// address map.  This is the substrate ECC Parity exploits -- channels share
// no circuitry, fail independently, and serve requests concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/address_map.hpp"
#include "dram/channel.hpp"
#include "dram/request.hpp"
#include "dram/spec.hpp"

namespace eccsim::dram {

/// Full configuration of a memory system instance.  `channels` counts
/// physical channels; when the device has sub-channels (DDR5) each one is
/// modeled as device.sub_channels independently-scheduled Channel objects
/// splitting the physical rank's chips between them.
struct MemSystemConfig {
  std::string name = "mem";
  std::uint32_t channels = 4;              ///< physical (failure-domain)
  std::uint32_t ranks_per_channel = 1;
  std::uint32_t chips_per_rank = 18;       ///< all chips (data + ECC)
  std::uint32_t data_chips_per_rank = 16;  ///< chips holding application data
  std::uint32_t line_bytes = 64;
  DramSpec device = micron_2gb(DeviceWidth::kX4);
  std::uint32_t queue_depth = 64;
  bool powerdown_enabled = true;
  RowPolicy row_policy = RowPolicy::kClosePage;

  /// Logical geometry implied by this configuration: each bank holds
  /// data_chips * (chip_capacity / chip_banks) bytes, organized as 4KB
  /// logical rows (Fig. 4).  The geometry's `channels` is the effective
  /// count (physical * sub_channels).
  MemGeometry geometry() const;

  /// Independently-scheduled channels (physical * device.sub_channels).
  std::uint32_t total_channels() const {
    return channels * device.sub_channels;
  }

  /// Total number of DRAM devices in the system.
  std::uint64_t total_chips() const {
    return static_cast<std::uint64_t>(channels) * ranks_per_channel *
           chips_per_rank;
  }
  /// Data capacity in bytes (excluding ECC chips).
  std::uint64_t data_capacity_bytes() const {
    return geometry().total_data_bytes();
  }
  /// Memory I/O pin count: chips * device width per channel, summed.
  std::uint64_t total_io_pins() const {
    return static_cast<std::uint64_t>(channels) * chips_per_rank *
           static_cast<std::uint32_t>(device.width);
  }
};

/// Aggregated statistics across channels.
struct MemSystemStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ecc_reads = 0;
  std::uint64_t ecc_writes = 0;
  double avg_read_latency = 0;
  EnergyBreakdown energy;

  /// The paper's access metric (Fig. 16): each 64B moved counts as one
  /// access, so one request on a 128B-line system counts twice.
  std::uint64_t accesses_64b(std::uint32_t line_bytes) const {
    return (reads + writes) * (line_bytes / 64);
  }
};

/// N-channel DRAM memory system (generation set by cfg.device).
class MemorySystem {
 public:
  explicit MemorySystem(const MemSystemConfig& cfg);

  const MemSystemConfig& config() const { return cfg_; }
  const AddressMap& map() const { return map_; }

  /// Number of independently-scheduled channels actually built
  /// (config().total_channels()).
  std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(channels_.size());
  }

  /// Enqueues a request at a DRAM address (a data line's comes from
  /// map().decode(); the ECC layers target reserved parity/correction rows
  /// in specific banks).  Returns false if the channel's queue is full.
  bool enqueue_addr(const DramAddress& addr, bool is_write,
                    LineClass line_class, std::uint64_t id);

  /// Advances simulated time by one memory-clock cycle.  Only the
  /// channels that are due are ticked: those whose Channel::next_event()
  /// (a completion due, or a transaction that may issue) is at or before
  /// the new cycle.  A channel that is not due would do nothing in its
  /// tick, and the due ones still run in index order, so the completion
  /// order is the same as ticking every channel.  enqueue_addr() makes its
  /// channel due at once.
  void tick();

  std::uint64_t cycle() const { return cycle_; }

  /// Completions finished by now; caller must consume and clear.
  std::vector<MemCompletion>& completions() { return completions_; }

  /// Total queued + in-flight transactions (drain check).
  std::size_t outstanding() const;

  /// Stops background-energy integration and aggregates statistics.
  MemSystemStats finalize();

  /// Registers per-channel observability stats under "dram.ch<N>..." and,
  /// when `tracer` is non-null, mirrors every DRAM command as a Chrome
  /// trace event (track N = channel N).  Call once before traffic.
  void attach_stats(stats::Registry& reg, stats::Tracer* tracer = nullptr);

  /// Attaches a passive per-channel command observer (dram/observer.hpp);
  /// the protocol checker in src/check audits channels through this hook.
  /// The observer must outlive the system (including finalize()).
  void set_command_observer(std::uint32_t channel, CommandObserver* observer);

  /// The per-channel configuration every channel was built with (observers
  /// such as the protocol checker validate against the same parameters).
  ChannelConfig channel_config() const;

 private:
  MemSystemConfig cfg_;
  AddressMap map_;
  std::vector<Channel> channels_;
  /// Per channel, the cycle its next tick can do work (its next_event()
  /// when last ticked; 0 = due now).
  std::vector<std::uint64_t> due_;
  std::vector<MemCompletion> completions_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_event_ = 0;  ///< min of due_
  bool finalized_ = false;
};

}  // namespace eccsim::dram
