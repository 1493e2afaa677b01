// Pluggable DRAM device specifications (DDR3 / DDR4 / DDR5).
//
// Every device timing, topology, and power number consumed by the channel
// model flows through one value type, DramSpec.  The paper (Sec. IV-B)
// models 2Gb DDR3 DRAM chips with a 1 GHz I/O clock (DDR3-2000), with
// parameters taken from die revision D of the Micron 2Gb DDR3 SDRAM
// datasheet, and computes power with the standard Micron methodology
// (TN-41-01): activate energy from IDD0 against the standby floor, burst
// energy from IDD4R/IDD4W, background power from IDD2P/IDD2N/IDD3N,
// refresh from IDD5B.  The DDR4 and DDR5 specs extend the same methodology
// with bank groups (tCCD_S/tCCD_L, tRRD_S/tRRD_L), sub-channels, same-bank
// refresh, and an on-die SECDED pre-correction filter; see
// docs/DRAM_SPECS.md for the full contract and per-generation tables.
//
// All timing values are stored in memory-controller clock cycles.  The
// controller clock is 1 GHz (1 ns per cycle), so cycle counts equal
// nanoseconds for every generation modeled here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace eccsim::dram {

/// DRAM device data-bus width.  Width determines burst energy (more DQ pins
/// toggle) and the number of chips needed per rank.
enum class DeviceWidth : std::uint8_t { kX4 = 4, kX8 = 8, kX16 = 16 };

std::string to_string(DeviceWidth w);

/// DRAM device generation selected by a DramSpec.
enum class Generation : std::uint8_t { kDdr3 = 0, kDdr4 = 1, kDdr5 = 2 };

/// Canonical lowercase name ("ddr3", "ddr4", "ddr5").
std::string to_string(Generation g);

/// Parses a canonical generation name; std::nullopt for anything else.
std::optional<Generation> parse_generation(std::string_view name);

/// How REF commands are issued and which banks each one blacks out.
enum class RefreshPolicy : std::uint8_t {
  kAllBank,   ///< DDR3/DDR4: one REF per rank blacks out every bank for tRFC
  kSameBank,  ///< DDR5 REFsb: each REF targets one bank set for tRFC(sb)
};

/// On-die ECC (DDR5): a (data_bits + check_bits) SECDED code inside the
/// device, modeled as a pre-correction filter in front of the rank-level
/// ECC scheme under test.  It attenuates the single-bit fault rate seen by
/// the scheme (see faults::on_die_ecc_filter); it is not a full functional
/// model of the internal codewords.
struct OnDieEcc {
  bool enabled = false;
  unsigned data_bits = 0;   ///< codeword payload bits (DDR5: 128)
  unsigned check_bits = 0;  ///< codeword check bits (DDR5: 8)
  /// Fraction of single-bit faults the internal SECDED removes before the
  /// rank-level scheme sees them.  Below 1.0 because repeating hard
  /// single-bit faults can alias with a second error inside a codeword.
  double bit_fault_coverage = 0.0;
};

/// Timing constraints in controller cycles (1 ns @ 1 GHz).
///
/// Generations without bank groups (DDR3) set the _S and _L variants of
/// tRRD and tCCD to the same value, so the bank-group gates in the channel
/// model degenerate to the classic single constraints.
struct DramTiming {
  unsigned tCK = 1;       ///< controller clock period (cycles; identity)
  unsigned tRCD = 14;     ///< ACT to RD/WR
  unsigned tCL = 14;      ///< RD to first data
  unsigned tCWL = 10;     ///< WR to first data
  unsigned tRP = 14;      ///< PRE to ACT
  unsigned tRAS = 35;     ///< ACT to PRE
  unsigned tRC = 49;      ///< ACT to ACT, same bank
  unsigned tRRD_S = 6;    ///< ACT to ACT, same rank, different bank group
  unsigned tRRD_L = 6;    ///< ACT to ACT, same rank, same bank group
  unsigned tFAW = 30;     ///< four-activate window, same rank
  unsigned tWR = 15;      ///< end of write data to PRE
  unsigned tWTR = 8;      ///< end of write data to RD, same rank
  unsigned tRTP = 8;      ///< RD to PRE
  unsigned tCCD_S = 4;    ///< CAS to CAS, different bank group
  unsigned tCCD_L = 4;    ///< CAS to CAS, same bank group
  unsigned tBurst = 4;    ///< data-bus beats per burst, in clocks
  unsigned tRFC = 160;    ///< refresh blackout per REF (tRFCsb for kSameBank)
  unsigned tREFI = 7800;  ///< average interval between REF commands
  unsigned tXP = 6;       ///< power-down exit to first command
  unsigned tCKE = 6;      ///< minimum power-down residency
  unsigned tRTW = 8;      ///< read-to-write bus turnaround, same channel
};

/// IDD currents in milliamps and the supply voltage.
struct DramCurrents {
  double idd0 = 95;    ///< one-bank ACT-PRE cycling
  double idd2p = 12;   ///< precharge power-down (slow exit)
  double idd2n = 45;   ///< precharge standby
  double idd3p = 50;   ///< active power-down
  double idd3n = 62;   ///< active standby
  double idd4r = 140;  ///< burst read
  double idd4w = 145;  ///< burst write
  double idd5b = 235;  ///< burst refresh
  double vdd = 1.5;    ///< supply voltage (volts)
};

/// Per-event / per-state energy quantities derived from the currents, in
/// picojoules (energy) and picojoules-per-cycle (power at 1 ns cycles).
struct DramEnergy {
  double act_pj = 0;        ///< one ACT+PRE pair, per chip
  double rd_burst_pj = 0;   ///< one read burst, per chip
  double wr_burst_pj = 0;   ///< one write burst, per chip
  double refresh_pj = 0;    ///< one REF command, per chip
  double bg_pd_pj_cyc = 0;  ///< background, precharge power-down
  double bg_pre_pj_cyc = 0;   ///< background, precharge standby
  double bg_act_pj_cyc = 0;   ///< background, active standby
};

/// A complete device description: generation, geometry, timing, power.
///
/// This is the single source every layer reads: the channel model schedules
/// from `timing` and charges from `energy`, MemSystemConfig derives address
/// geometry from `banks`/`rows`/`columns`, the protocol checker re-derives
/// its rules from `timing` + `bank_groups` + `refresh`, and the Monte Carlo
/// benches consult `on_die_ecc`.  Construct one with micron_2gb() /
/// ddr4_8gb() / ddr5_16gb(), or generically with spec_for().
struct DramSpec {
  Generation generation = Generation::kDdr3;
  DeviceWidth width = DeviceWidth::kX8;
  std::uint64_t capacity_mbit = 2048;  ///< 2Gb parts throughout the paper
  unsigned banks = 8;         ///< banks per chip (all bank groups combined)
  unsigned bank_groups = 1;   ///< bank groups per chip (1 = no groups)
  unsigned sub_channels = 1;  ///< independent sub-channels per channel
  std::uint64_t rows = 32768;  ///< derived; see the factory functions
  unsigned columns = 1024;     ///< column addresses per row
  unsigned page_bytes = 2048;  ///< row-buffer size in bytes
  RefreshPolicy refresh = RefreshPolicy::kAllBank;
  OnDieEcc on_die_ecc;  ///< disabled for DDR3/DDR4
  DramTiming timing;
  DramCurrents currents;
  DramEnergy energy;  ///< derived from currents+timing by the factories

  /// A speed-multiplier knob for the Sec. V-D discussion (a 16% faster speed
  /// bin costs ~5% memory energy); 1.0 for the standard part.
  double speed_factor = 1.0;

  /// Bank group of a bank index.  Banks stripe across groups round-robin,
  /// so consecutive bank indices land in different groups (the friendly
  /// ordering for tCCD_L/tRRD_L).
  unsigned bank_group_of(unsigned bank) const { return bank % bank_groups; }

  /// Number of distinct bank sets the refresh rotation walks through: 1 for
  /// kAllBank, banks-per-group for kSameBank (a REFsb refreshes the same
  /// in-group bank index across every group).
  unsigned refresh_sets() const {
    return refresh == RefreshPolicy::kSameBank ? banks / bank_groups : 1;
  }

  /// Bank set refreshed by REF number `ref_index` (0-based).  For kAllBank
  /// this is always 0 (meaning "all banks").
  unsigned refresh_set_of_ref(std::uint64_t ref_index) const {
    return static_cast<unsigned>(ref_index % refresh_sets());
  }

  /// Bank set a bank index belongs to (its in-group index under kSameBank).
  unsigned refresh_set_of_bank(unsigned bank) const {
    return refresh == RefreshPolicy::kSameBank ? bank / bank_groups : 0;
  }
};

/// Legacy name for the DDR3-era device struct; every layer now takes the
/// generation-neutral DramSpec.
using Ddr3Device = DramSpec;

/// Builds the 2Gb Micron die-rev-D DDR3 device model for a given width —
/// the paper-faithful part.  Geometry: 2Gb DDR3 has 8 banks for all widths;
/// x4/x8 have 32K rows (x4: 2K cols, x8: 1K cols), x16 has 16K rows.  IDD4
/// scales with width (more DQ toggling); IDD0/IDD5 are slightly higher for
/// x16.  Bit-identical to the pre-spec-layer ddr3_params constants (pinned
/// by tests/dram_spec_test.cpp and the identity.goldens ctest).
DramSpec micron_2gb(DeviceWidth width, double speed_factor = 1.0);

/// Builds a representative 8Gb DDR4-2400-class device (16 banks in 4 bank
/// groups, tCCD_S/tCCD_L split, four-bank activation window) extrapolated
/// to the model's 1 GHz controller clock.  Not paper-faithful — see
/// docs/DRAM_SPECS.md for provenance.
DramSpec ddr4_8gb(DeviceWidth width, double speed_factor = 1.0);

/// Builds a representative 16Gb DDR5-3200-class device (32 banks in 8 bank
/// groups, two 32-bit sub-channels, same-bank refresh, on-die SECDED)
/// extrapolated to the model's 1 GHz controller clock.  Not paper-faithful
/// — see docs/DRAM_SPECS.md for provenance.
DramSpec ddr5_16gb(DeviceWidth width, double speed_factor = 1.0);

/// Builds the default device for a generation: micron_2gb / ddr4_8gb /
/// ddr5_16gb respectively.
DramSpec spec_for(Generation g, DeviceWidth width, double speed_factor = 1.0);

/// Recomputes the derived per-event energies from the device's current
/// timing and IDD values.  Call after editing currents (e.g. to model the
/// LOT-ECC5 mixed x16/x8 rank as scaled x16 chips).
void rederive_energy(DramSpec& device);

}  // namespace eccsim::dram
