#include "fleet/spec.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "runner/json.hpp"

namespace eccsim::fleet {

namespace {

/// FNV-1a, the same primitive the MC checkpoint identity uses.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double number_at(const runner::Json& obj, const std::string& key,
                 double fallback) {
  return obj.contains(key) ? obj.at(key).as_number() : fallback;
}

std::uint64_t count_at(const runner::Json& obj, const std::string& key,
                       std::uint64_t fallback) {
  if (!obj.contains(key)) return fallback;
  const double v = obj.at(key).as_number();
  if (v < 0 || v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    throw std::runtime_error("fleet spec: '" + key +
                             "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

std::string string_at(const runner::Json& obj, const std::string& key,
                      const std::string& fallback) {
  return obj.contains(key) ? obj.at(key).as_string() : fallback;
}

/// Rejects members outside `known`, so a typo ("chanels") fails loudly
/// instead of silently taking the default.
void reject_unknown(const runner::Json& obj,
                    const std::vector<std::string>& known,
                    const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::runtime_error("fleet spec: unknown member '" + key +
                               "' in " + where);
    }
  }
}

}  // namespace

std::uint64_t FleetSpec::total_nodes() const {
  std::uint64_t n = 0;
  for (const PoolSpec& p : pools) n += p.nodes;
  return n;
}

void FleetSpec::scale_nodes(std::uint64_t factor) {
  if (factor <= 1) return;
  for (PoolSpec& p : pools) p.nodes = std::max<std::uint64_t>(1, p.nodes / factor);
}

std::optional<GenFaultParams> gen_fault_params(const std::string& dram) {
  // Mirrors dram::spec_for's default devices (micron_2gb / ddr4_8gb /
  // ddr5_16gb); pinned against them in tests/fleet_test.cpp so this table
  // cannot drift from the spec layer it deliberately does not include.
  if (dram == "ddr3") return GenFaultParams{8, 0.0};
  if (dram == "ddr4") return GenFaultParams{16, 0.0};
  if (dram == "ddr5") return GenFaultParams{32, 0.9};
  return std::nullopt;
}

std::optional<SchemeClass> scheme_class(const std::string& ecc) {
  // The Table II scheme names (ecc::to_string spellings, pinned by
  // tests/fleet_test.cpp).  The tiered and chipkill schemes correct
  // within one rank; the + parity variants correct across channels and
  // fail on the Fig. 18 multi-channel coincidence instead.
  if (ecc == "chipkill36" || ecc == "chipkill18" || ecc == "lotecc5" ||
      ecc == "lotecc9" || ecc == "multiecc" || ecc == "raim") {
    return SchemeClass::kIsolated;
  }
  if (ecc == "lotecc5+parity" || ecc == "raim+parity") {
    return SchemeClass::kCrossParity;
  }
  return std::nullopt;
}

runner::Json to_json(const FleetSpec& spec) {
  runner::Json doc = runner::Json::object();
  doc.set("name", spec.name);
  doc.set("seed", spec.seed);
  doc.set("lifetime_hours", spec.lifetime_hours);
  doc.set("window_hours", spec.window_hours);
  runner::Json repair = runner::Json::object();
  repair.set("detect_hours", spec.repair.detect_hours);
  repair.set("repair_hours", spec.repair.repair_hours);
  repair.set("spares", static_cast<std::int64_t>(spec.repair.spares));
  doc.set("repair", std::move(repair));
  runner::Json pools = runner::Json::array();
  for (const PoolSpec& p : spec.pools) {
    runner::Json pool = runner::Json::object();
    pool.set("name", p.name);
    pool.set("nodes", p.nodes);
    pool.set("dram", p.dram);
    pool.set("ecc", p.ecc);
    pool.set("channels", static_cast<std::uint64_t>(p.channels));
    pool.set("ranks_per_channel",
             static_cast<std::uint64_t>(p.ranks_per_channel));
    pool.set("chips_per_rank", static_cast<std::uint64_t>(p.chips_per_rank));
    pool.set("fit_per_chip", p.fit_per_chip);
    pool.set("speed_factor", p.speed_factor);
    pools.push_back(std::move(pool));
  }
  doc.set("pools", std::move(pools));
  return doc;
}

FleetSpec spec_from_json(const runner::Json& doc) {
  if (!doc.is_object()) {
    throw std::runtime_error("fleet spec: document is not an object");
  }
  reject_unknown(doc,
                 {"name", "seed", "lifetime_hours", "window_hours", "repair",
                  "pools"},
                 "the fleet spec");
  FleetSpec spec;
  spec.name = string_at(doc, "name", spec.name);
  spec.seed = count_at(doc, "seed", spec.seed);
  spec.lifetime_hours = number_at(doc, "lifetime_hours", spec.lifetime_hours);
  spec.window_hours = number_at(doc, "window_hours", spec.window_hours);
  if (doc.contains("repair")) {
    const runner::Json& r = doc.at("repair");
    reject_unknown(r, {"detect_hours", "repair_hours", "spares"}, "repair");
    spec.repair.detect_hours =
        number_at(r, "detect_hours", spec.repair.detect_hours);
    spec.repair.repair_hours =
        number_at(r, "repair_hours", spec.repair.repair_hours);
    spec.repair.spares = static_cast<std::int64_t>(
        number_at(r, "spares", static_cast<double>(spec.repair.spares)));
  }
  if (!doc.contains("pools") || !doc.at("pools").is_array()) {
    throw std::runtime_error("fleet spec: missing 'pools' array");
  }
  for (const runner::Json& item : doc.at("pools").items()) {
    reject_unknown(item,
                   {"name", "nodes", "dram", "ecc", "channels",
                    "ranks_per_channel", "chips_per_rank", "fit_per_chip",
                    "speed_factor"},
                   "a pool");
    PoolSpec p;
    p.name = string_at(item, "name", "");
    p.nodes = count_at(item, "nodes", p.nodes);
    p.dram = string_at(item, "dram", p.dram);
    p.ecc = string_at(item, "ecc", p.ecc);
    p.channels = static_cast<unsigned>(count_at(item, "channels", p.channels));
    p.ranks_per_channel = static_cast<unsigned>(
        count_at(item, "ranks_per_channel", p.ranks_per_channel));
    p.chips_per_rank = static_cast<unsigned>(
        count_at(item, "chips_per_rank", p.chips_per_rank));
    p.fit_per_chip = number_at(item, "fit_per_chip", p.fit_per_chip);
    p.speed_factor = number_at(item, "speed_factor", p.speed_factor);
    spec.pools.push_back(std::move(p));
  }
  return spec;
}

std::string validate(const FleetSpec& spec) {
  if (spec.pools.empty()) return "fleet spec: no pools";
  if (!(spec.lifetime_hours > 0)) return "fleet spec: lifetime_hours <= 0";
  if (!(spec.window_hours > 0)) return "fleet spec: window_hours <= 0";
  if (spec.repair.detect_hours < 0 || spec.repair.repair_hours < 0) {
    return "fleet spec: negative repair policy durations";
  }
  for (const PoolSpec& p : spec.pools) {
    const std::string where = "pool '" + p.name + "'";
    if (p.name.empty()) return "fleet spec: a pool has no name";
    if (p.nodes == 0) return where + ": zero nodes";
    if (!gen_fault_params(p.dram)) {
      return where + ": unknown dram generation '" + p.dram +
             "' (expected ddr3, ddr4, or ddr5)";
    }
    if (!scheme_class(p.ecc)) {
      return where + ": unknown ecc scheme '" + p.ecc + "'";
    }
    if (p.channels < 2) return where + ": needs >= 2 channels";
    if (p.ranks_per_channel == 0 || p.chips_per_rank == 0) {
      return where + ": empty rank organization";
    }
    if (p.fit_per_chip < 0) return where + ": negative fit_per_chip";
    if (!(p.speed_factor > 0)) return where + ": speed_factor <= 0";
  }
  // faults::mc_run indexes systems as unsigned.
  if (spec.total_nodes() >
      static_cast<std::uint64_t>(std::numeric_limits<unsigned>::max())) {
    return "fleet spec: total node count exceeds the 2^32-1 budget";
  }
  return "";
}

std::string config_hash(const FleetSpec& spec) {
  const std::uint64_t h = fnv1a(to_json(spec).dump(0));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

}  // namespace eccsim::fleet
