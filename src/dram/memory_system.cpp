#include "dram/memory_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace eccsim::dram {

MemGeometry MemSystemConfig::geometry() const {
  MemGeometry g;
  g.channels = total_channels();
  g.sub_channels = device.sub_channels;
  g.ranks_per_channel = ranks_per_channel;
  g.banks_per_rank = device.banks;
  g.line_bytes = line_bytes;
  g.page_bytes = 4096;
  const std::uint64_t chip_bytes = device.capacity_mbit * 1024 * 1024 / 8;
  // Each sub-channel owns an even share of the physical rank's data chips
  // (DDR5: half), so per-effective-channel bank capacity shrinks with the
  // sub-channel count while system capacity stays put.
  const std::uint64_t bank_data_bytes =
      static_cast<std::uint64_t>(data_chips_per_rank / device.sub_channels) *
      chip_bytes / device.banks;
  g.rows_per_bank = bank_data_bytes / g.page_bytes;
  return g;
}

ChannelConfig MemorySystem::channel_config() const {
  ChannelConfig cc;
  cc.device = cfg_.device;
  cc.ranks = cfg_.ranks_per_channel;
  cc.banks = cfg_.device.banks;
  cc.chips_per_rank = static_cast<double>(cfg_.chips_per_rank) /
                      cfg_.device.sub_channels;
  cc.queue_depth = cfg_.queue_depth;
  cc.powerdown_enabled = cfg_.powerdown_enabled;
  cc.row_policy = cfg_.row_policy;
  return cc;
}

MemorySystem::MemorySystem(const MemSystemConfig& cfg)
    : cfg_(cfg), map_(cfg.geometry()) {
  const ChannelConfig cc = channel_config();
  const std::uint32_t n = cfg_.total_channels();
  channels_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    channels_.emplace_back(cc);
  }
  due_.assign(n, 0);
}

bool MemorySystem::enqueue_addr(const DramAddress& addr, bool is_write,
                                LineClass line_class, std::uint64_t id) {
  if (addr.channel >= channels_.size()) {
    throw std::out_of_range("MemorySystem::enqueue_addr: bad channel");
  }
  MemRequest req;
  req.id = id;
  req.addr = addr;
  req.is_write = is_write;
  req.line_class = line_class;
  req.enqueue_cycle = cycle_;
  if (!channels_[addr.channel].enqueue(req)) return false;
  due_[addr.channel] = 0;
  next_event_ = 0;
  return true;
}

void MemorySystem::tick() {
  ++cycle_;
  if (cycle_ < next_event_) return;
  std::uint64_t next = ~0ULL;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (due_[c] <= cycle_) {
      channels_[c].tick(cycle_, completions_);
      due_[c] = channels_[c].next_event();
    }
    next = std::min(next, due_[c]);
  }
  next_event_ = next;
}

std::size_t MemorySystem::outstanding() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch.pending() + ch.in_flight();
  return n;
}

MemSystemStats MemorySystem::finalize() {
  if (!finalized_) {
    for (auto& ch : channels_) ch.finalize(cycle_);
    finalized_ = true;
  }
  MemSystemStats s;
  std::uint64_t lat_sum = 0;
  for (const Channel& ch : channels_) {
    const ChannelStats& cs = ch.stats();
    s.reads += cs.reads;
    s.writes += cs.writes;
    s.ecc_reads += cs.ecc_reads;
    s.ecc_writes += cs.ecc_writes;
    lat_sum += cs.read_latency_sum;
    s.energy.add(cs.energy);
  }
  s.avg_read_latency =
      s.reads ? static_cast<double>(lat_sum) / static_cast<double>(s.reads)
              : 0.0;
  return s;
}

void MemorySystem::set_command_observer(std::uint32_t channel,
                                        CommandObserver* observer) {
  channels_.at(channel).set_observer(observer);
}

void MemorySystem::attach_stats(stats::Registry& reg, stats::Tracer* tracer) {
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    channels_[c].attach_stats(reg, "dram.ch" + std::to_string(c), tracer, c);
  }
}

}  // namespace eccsim::dram
