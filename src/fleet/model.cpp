#include "fleet/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/units.hpp"
#include "faults/montecarlo.hpp"

namespace eccsim::fleet {

namespace {

/// %.17g round-trips every double; availability nines print "inf" for a
/// fleet without downtime.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

FleetModel::FleetModel(const FleetSpec& spec) : spec_(spec) {
  const std::string diag = validate(spec_);
  if (!diag.empty()) throw std::runtime_error(diag);
  for (const PoolSpec& p : spec_.pools) {
    const GenFaultParams gen = *gen_fault_params(p.dram);
    PoolRuntime rt;
    rt.shape.channels = p.channels;
    rt.shape.ranks_per_channel = p.ranks_per_channel;
    rt.shape.chips_per_rank = p.chips_per_rank;
    rt.shape.banks_per_rank = gen.banks_per_rank;
    // The vendor-average type split, scaled to the pool's speed-binned
    // per-chip rate and filtered by the generation's on-die ECC.
    rt.rates = faults::on_die_ecc_filter(
        faults::ddr3_vendor_average().scaled_to(p.fit_per_chip *
                                                p.speed_factor),
        gen.on_die_bit_coverage);
    rt.cls = *scheme_class(p.ecc);
    runtime_.push_back(rt);
    nodes_ += p.nodes;
    pool_end_.push_back(nodes_);
  }
}

std::size_t FleetModel::pool_of(std::uint64_t index) const {
  const auto it =
      std::upper_bound(pool_end_.begin(), pool_end_.end(), index);
  if (it == pool_end_.end()) {
    throw std::out_of_range("fleet: node index beyond the fleet");
  }
  return static_cast<std::size_t>(it - pool_end_.begin());
}

void FleetModel::node_fields(std::uint64_t index, Rng& rng,
                             double* fields) const {
  const PoolRuntime& rt = runtime_[pool_of(index)];
  const std::vector<faults::FaultEvent> events = faults::sample_lifetime(
      rt.shape, rt.rates, spec_.lifetime_hours, rng);

  double uncorrected = 0;
  double first_time = std::numeric_limits<double>::infinity();
  double downtime = 0;
  double hard = 0;

  // Live counter-saturating faults.  Page retirement absorbs
  // bit/word/row faults (Sec. III-C); column-and-larger faults are
  // permanent device damage.  For an isolated scheme the damage stays
  // exposed until the node's memory is swapped, so a second hard fault
  // in the same rank at *any* later time defeats it (the double-chipkill
  // overlap of the field studies).  A cross-parity scheme re-protects
  // each fault once the scrub pass materializes its correction bits, so
  // only faults inside one detection window of each other coincide
  // (Fig. 18) -- the window prune below applies to that class alone.
  // An uncorrected event crashes the node and its memory is replaced,
  // so the history resets.
  struct Live {
    double time;
    unsigned channel;
    unsigned rank;
  };
  std::vector<Live> live;
  for (const faults::FaultEvent& ev : events) {
    if (!faults::saturates_error_counter(ev.type)) continue;
    hard += 1;
    if (rt.cls == SchemeClass::kCrossParity) {
      std::erase_if(live, [&](const Live& l) {
        return l.time < ev.time_hours - spec_.window_hours;
      });
    }
    const bool coincides = std::any_of(
        live.begin(), live.end(), [&](const Live& l) {
          return rt.cls == SchemeClass::kIsolated
                     ? (l.channel == ev.channel && l.rank == ev.rank)
                     : (l.channel != ev.channel);
        });
    if (coincides) {
      uncorrected += 1;
      first_time = std::min(first_time, ev.time_hours);
      downtime +=
          std::min(spec_.repair.detect_hours + spec_.repair.repair_hours,
                   spec_.lifetime_hours - ev.time_hours);
      live.clear();
    } else {
      live.push_back({ev.time_hours, ev.channel, ev.rank});
    }
  }

  fields[kFieldEvents] = uncorrected;
  fields[kFieldFirstEvent] = first_time;
  fields[kFieldDowntime] = downtime;
  fields[kFieldHardFaults] = hard;
}

FleetAccumulator::FleetAccumulator(const FleetModel& model)
    : model_(&model), events_(kFleetReservoirCap) {
  for (const PoolSpec& p : model.spec().pools) {
    PoolResult r;
    r.name = p.name;
    r.nodes = p.nodes;
    pools_.push_back(std::move(r));
  }
}

void FleetAccumulator::add(std::uint64_t index, const double* fields) {
  const std::size_t pi = model_->pool_of(index);
  PoolResult& pool = pools_[pi];
  pool.uncorrected_events += fields[kFieldEvents];
  pool.hard_faults += fields[kFieldHardFaults];
  events_.add(fields[kFieldEvents],
              faults::mc_sample_key(model_->spec().seed,
                                    static_cast<unsigned>(index)));
  if (fields[kFieldEvents] > 0) {
    pool.nodes_with_events += 1;
    demands_.push_back({fields[kFieldFirstEvent], index});
    demand_pool_.push_back(pi);
    demand_repaired_downtime_.push_back(fields[kFieldDowntime]);
  }
}

FleetResult FleetAccumulator::finalize() const {
  const FleetSpec& spec = model_->spec();
  FleetResult r;
  r.name = spec.name;
  r.config_hash = config_hash(spec);
  r.nodes = model_->nodes();
  r.lifetime_hours = spec.lifetime_hours;
  r.pools = pools_;

  // Spare-pool depletion: failing nodes claim spares in the order their
  // first event occurred (ties break on node index, so the outcome is a
  // pure function of the merged field stream).  A node whose first event
  // finds the pool empty is lost for the remaining lifetime; every later
  // event on a repaired node reuses the same (already swapped-in) node.
  std::vector<std::size_t> order(demands_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands_[a] < demands_[b];
  });
  const bool unlimited = spec.repair.spares < 0;
  const std::uint64_t spares =
      unlimited ? 0 : static_cast<std::uint64_t>(spec.repair.spares);
  std::uint64_t granted = 0;
  for (const std::size_t d : order) {
    PoolResult& pool = r.pools[demand_pool_[d]];
    if (unlimited || granted < spares) {
      ++granted;
      pool.downtime_hours += demand_repaired_downtime_[d];
    } else {
      pool.nodes_lost += 1;
      pool.downtime_hours += spec.lifetime_hours - demands_[d].first_time;
    }
  }

  for (const PoolResult& pool : r.pools) {
    r.uncorrected_events += pool.uncorrected_events;
    r.nodes_with_events += pool.nodes_with_events;
    r.nodes_lost += pool.nodes_lost;
    r.downtime_hours += pool.downtime_hours;
  }

  const double node_hours =
      static_cast<double>(r.nodes) * spec.lifetime_hours;
  r.annual_node_loss = static_cast<double>(r.nodes_lost) /
                       (spec.lifetime_hours / units::kHoursPerYear);
  r.availability =
      node_hours > 0 ? 1.0 - r.downtime_hours / node_hours : 1.0;
  // +inf when no downtime at all; the JSON writer renders that as null.
  r.availability_nines = -std::log10(1.0 - r.availability);

  r.events_p50 = events_.percentile(50);
  r.events_p99 = events_.percentile(99);
  r.events_p999 = events_.percentile(99.9);
  r.quantiles_exact = events_.exact();
  return r;
}

FleetResult run(const FleetSpec& spec, const faults::McOptions& opts) {
  const FleetModel model(spec);
  FleetAccumulator acc(model);
  faults::mc_run(
      static_cast<unsigned>(model.nodes()), spec.seed, kNodeFields,
      "fleet:" + config_hash(spec), opts,
      [&model](unsigned index, Rng& rng, double* fields) {
        model.node_fields(index, rng, fields);
      },
      [&acc](unsigned index, const double* fields) { acc.add(index, fields); });
  return acc.finalize();
}

Table result_table(const FleetResult& r) {
  Table t({"scope", "name", "nodes", "uncorrected events",
           "nodes with events", "nodes lost", "downtime (h)", "hard faults",
           "annual node loss", "availability", "availability nines",
           "events p50", "events p99", "events p99.9", "quantiles",
           "lifetime (h)", "config hash"});
  t.add_row({"fleet", r.name, std::to_string(r.nodes),
             exact(r.uncorrected_events), std::to_string(r.nodes_with_events),
             std::to_string(r.nodes_lost), exact(r.downtime_hours), "",
             exact(r.annual_node_loss), exact(r.availability),
             exact(r.availability_nines), exact(r.events_p50),
             exact(r.events_p99), exact(r.events_p999),
             r.quantiles_exact ? "exact" : "reservoir",
             exact(r.lifetime_hours), r.config_hash});
  for (const PoolResult& p : r.pools) {
    t.add_row({"pool", p.name, std::to_string(p.nodes),
               exact(p.uncorrected_events), std::to_string(p.nodes_with_events),
               std::to_string(p.nodes_lost), exact(p.downtime_hours),
               exact(p.hard_faults)});
  }
  return t;
}

}  // namespace eccsim::fleet
