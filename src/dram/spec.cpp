#include "dram/spec.hpp"

#include <stdexcept>

#include "common/units.hpp"

namespace eccsim::dram {

std::string to_string(DeviceWidth w) {
  switch (w) {
    case DeviceWidth::kX4: return "x4";
    case DeviceWidth::kX8: return "x8";
    case DeviceWidth::kX16: return "x16";
  }
  return "x?";
}

std::string to_string(Generation g) {
  switch (g) {
    case Generation::kDdr3: return "ddr3";
    case Generation::kDdr4: return "ddr4";
    case Generation::kDdr5: return "ddr5";
  }
  return "ddr?";
}

std::optional<Generation> parse_generation(std::string_view name) {
  if (name == "ddr3") return Generation::kDdr3;
  if (name == "ddr4") return Generation::kDdr4;
  if (name == "ddr5") return Generation::kDdr5;
  return std::nullopt;
}

namespace {

DramEnergy derive_energy(const DramTiming& t, const DramCurrents& c) {
  using units::picojoules;
  DramEnergy e;
  // Micron TN-41-01 activate power: IDD0 minus the standby floor it was
  // measured against (IDD3N during tRAS, IDD2N during tRC - tRAS), spread
  // over one tRC.  Energy = that net current * VDD * tRC.
  const double act_net_ma =
      c.idd0 - (c.idd3n * t.tRAS + c.idd2n * (t.tRC - t.tRAS)) /
                   static_cast<double>(t.tRC);
  e.act_pj = picojoules(act_net_ma, c.vdd, static_cast<double>(t.tRC));
  // Burst energy: current above active standby for the burst duration.
  e.rd_burst_pj =
      picojoules(c.idd4r - c.idd3n, c.vdd, static_cast<double>(t.tBurst));
  e.wr_burst_pj =
      picojoules(c.idd4w - c.idd3n, c.vdd, static_cast<double>(t.tBurst));
  e.refresh_pj =
      picojoules(c.idd5b - c.idd2n, c.vdd, static_cast<double>(t.tRFC));
  e.bg_pd_pj_cyc = picojoules(c.idd2p, c.vdd, 1.0);
  e.bg_pre_pj_cyc = picojoules(c.idd2n, c.vdd, 1.0);
  e.bg_act_pj_cyc = picojoules(c.idd3n, c.vdd, 1.0);
  return e;
}

// Shortens cycle-denominated latencies and raises currents slightly for a
// faster speed bin (Sec. V-D estimates a 16% faster bin costs ~5% EPI).
// Shared by every generation; the arithmetic matches the original DDR3-only
// implementation exactly so the speed-bin ablation stays bit-identical.
void apply_speed_factor(DramSpec& d, double speed_factor) {
  d.speed_factor = speed_factor;
  if (speed_factor == 1.0) return;
  auto scale = [&](unsigned v) {
    return static_cast<unsigned>(static_cast<double>(v) / speed_factor);
  };
  d.timing.tRCD = scale(d.timing.tRCD);
  d.timing.tCL = scale(d.timing.tCL);
  d.timing.tRP = scale(d.timing.tRP);
  const double current_scale = 1.0 + 0.3 * (speed_factor - 1.0);
  d.currents.idd0 *= current_scale;
  d.currents.idd2n *= current_scale;
  d.currents.idd3n *= current_scale;
  d.currents.idd4r *= current_scale;
  d.currents.idd4w *= current_scale;
}

// Rows follow from capacity = banks * rows * columns * width.
std::uint64_t derive_rows(const DramSpec& d) {
  return d.capacity_mbit * 1024 * 1024 /
         (static_cast<std::uint64_t>(d.banks) * d.columns *
          static_cast<unsigned>(d.width));
}

}  // namespace

DramSpec micron_2gb(DeviceWidth width, double speed_factor) {
  DramSpec d;
  d.generation = Generation::kDdr3;
  d.width = width;
  d.capacity_mbit = 2048;
  d.banks = 8;
  d.bank_groups = 1;
  d.sub_channels = 1;
  switch (width) {
    case DeviceWidth::kX4:
      d.columns = 2048;
      d.page_bytes = 1024;  // 2K columns * 4 bits = 1KB row
      d.currents.idd4r = 140;
      d.currents.idd4w = 145;
      break;
    case DeviceWidth::kX8:
      d.columns = 1024;
      d.page_bytes = 1024;  // 1K columns * 8 bits = 1KB row
      d.currents.idd4r = 160;
      d.currents.idd4w = 165;
      break;
    case DeviceWidth::kX16:
      d.columns = 1024;
      d.page_bytes = 2048;  // 1K columns * 16 bits = 2KB row
      d.currents.idd0 = 115;
      d.currents.idd4r = 230;
      d.currents.idd4w = 240;
      d.currents.idd5b = 255;
      d.timing.tFAW = 40;  // wider page -> longer four-activate window
      d.timing.tRRD_S = 8;
      d.timing.tRRD_L = 8;
      break;
  }
  // x4 -> 32K rows, x8 -> 32K rows, x16 -> 16K rows for the 2Gb part.
  d.rows = derive_rows(d);
  apply_speed_factor(d, speed_factor);
  d.energy = derive_energy(d.timing, d.currents);
  return d;
}

DramSpec ddr4_8gb(DeviceWidth width, double speed_factor) {
  DramSpec d;
  d.generation = Generation::kDdr4;
  d.width = width;
  d.capacity_mbit = 8192;
  d.banks = 16;       // 4 bank groups x 4 banks
  d.bank_groups = 4;
  d.sub_channels = 1;
  // Representative 8Gb DDR4-2400 part (Micron 8Gb DDR4 SDRAM datasheet
  // class), expressed in 1 ns controller cycles.  VDD drops to 1.2 V and
  // the per-bank currents shrink relative to DDR3 while burst currents
  // grow with the faster interface.
  d.timing.tRCD = 14;
  d.timing.tCL = 14;
  d.timing.tCWL = 11;
  d.timing.tRP = 14;
  d.timing.tRAS = 32;
  d.timing.tRC = 46;
  d.timing.tRRD_S = 4;
  d.timing.tRRD_L = 6;
  d.timing.tFAW = 21;
  d.timing.tWR = 15;
  d.timing.tWTR = 8;
  d.timing.tRTP = 8;
  d.timing.tCCD_S = 4;   // different bank group: back-to-back bursts
  d.timing.tCCD_L = 6;   // same bank group: 2-cycle bubble between bursts
  d.timing.tBurst = 4;   // BL8 on a 64-bit channel
  d.timing.tRFC = 350;   // tRFC1 for the 8Gb part
  d.timing.tREFI = 7800;
  d.timing.tXP = 6;
  d.timing.tCKE = 5;
  d.timing.tRTW = 8;
  d.currents.idd0 = 58;
  d.currents.idd2p = 25;
  d.currents.idd2n = 38;
  d.currents.idd3p = 42;
  d.currents.idd3n = 50;
  d.currents.idd5b = 195;
  d.currents.vdd = 1.2;
  switch (width) {
    case DeviceWidth::kX4:
      d.columns = 1024;
      d.page_bytes = 512;  // 1K columns * 4 bits
      d.currents.idd4r = 140;
      d.currents.idd4w = 135;
      break;
    case DeviceWidth::kX8:
      d.columns = 1024;
      d.page_bytes = 1024;
      d.currents.idd4r = 150;
      d.currents.idd4w = 145;
      break;
    case DeviceWidth::kX16:
      d.columns = 1024;
      d.page_bytes = 2048;
      d.currents.idd0 = 70;
      d.currents.idd4r = 200;
      d.currents.idd4w = 190;
      d.currents.idd5b = 215;
      d.timing.tRRD_S = 6;
      d.timing.tRRD_L = 8;
      d.timing.tFAW = 30;
      break;
  }
  // x4 -> 128K rows, x8 -> 64K rows, x16 -> 32K rows for the 8Gb part.
  d.rows = derive_rows(d);
  apply_speed_factor(d, speed_factor);
  d.energy = derive_energy(d.timing, d.currents);
  return d;
}

DramSpec ddr5_16gb(DeviceWidth width, double speed_factor) {
  DramSpec d;
  d.generation = Generation::kDdr5;
  d.width = width;
  d.capacity_mbit = 16384;
  d.banks = 32;       // 8 bank groups x 4 banks
  d.bank_groups = 8;
  d.sub_channels = 2;  // two independent 32-bit sub-channels per channel
  // Representative 16Gb DDR5-3200 part in 1 ns controller cycles.  A burst
  // is BL16 on a 32-bit sub-channel: 16 beats at double data rate occupy 8
  // clocks and still move one 64-byte line.  Refresh is same-bank (REFsb):
  // tREFI is the interval between REFsb commands (all-bank tREFI1 of
  // 3.9 us divided by the four bank sets) and tRFC is tRFCsb.
  d.refresh = RefreshPolicy::kSameBank;
  d.on_die_ecc.enabled = true;
  d.on_die_ecc.data_bits = 128;
  d.on_die_ecc.check_bits = 8;
  d.on_die_ecc.bit_fault_coverage = 0.9;
  d.timing.tRCD = 16;
  d.timing.tCL = 16;
  d.timing.tCWL = 14;
  d.timing.tRP = 16;
  d.timing.tRAS = 32;
  d.timing.tRC = 48;
  d.timing.tRRD_S = 4;
  d.timing.tRRD_L = 5;
  d.timing.tFAW = 20;
  d.timing.tWR = 30;
  d.timing.tWTR = 10;
  d.timing.tRTP = 12;
  d.timing.tCCD_S = 4;
  d.timing.tCCD_L = 8;
  d.timing.tBurst = 8;   // BL16 on a 32-bit sub-channel
  d.timing.tRFC = 130;   // tRFCsb for the 16Gb part
  d.timing.tREFI = 975;  // 3.9 us tREFI1 / 4 bank sets, per REFsb
  d.timing.tXP = 7;
  d.timing.tCKE = 5;
  d.timing.tRTW = 10;
  d.currents.idd0 = 65;
  d.currents.idd2p = 30;
  d.currents.idd2n = 45;
  d.currents.idd3p = 50;
  d.currents.idd3n = 55;
  d.currents.idd5b = 160;  // REFsb refreshes one bank set, not the device
  d.currents.vdd = 1.1;
  switch (width) {
    case DeviceWidth::kX4:
      d.columns = 1024;
      d.page_bytes = 512;
      d.currents.idd4r = 170;
      d.currents.idd4w = 160;
      break;
    case DeviceWidth::kX8:
      d.columns = 1024;
      d.page_bytes = 1024;
      d.currents.idd4r = 180;
      d.currents.idd4w = 170;
      break;
    case DeviceWidth::kX16:
      d.columns = 1024;
      d.page_bytes = 2048;
      d.currents.idd0 = 78;
      d.currents.idd4r = 240;
      d.currents.idd4w = 225;
      d.currents.idd5b = 180;
      d.timing.tRRD_S = 6;
      d.timing.tRRD_L = 8;
      d.timing.tFAW = 28;
      break;
  }
  // x4 -> 128K rows, x8 -> 64K rows, x16 -> 32K rows for the 16Gb part.
  d.rows = derive_rows(d);
  apply_speed_factor(d, speed_factor);
  d.energy = derive_energy(d.timing, d.currents);
  return d;
}

DramSpec spec_for(Generation g, DeviceWidth width, double speed_factor) {
  switch (g) {
    case Generation::kDdr3: return micron_2gb(width, speed_factor);
    case Generation::kDdr4: return ddr4_8gb(width, speed_factor);
    case Generation::kDdr5: return ddr5_16gb(width, speed_factor);
  }
  return micron_2gb(width, speed_factor);
}

void rederive_energy(DramSpec& device) {
  device.energy = derive_energy(device.timing, device.currents);
}

}  // namespace eccsim::dram
