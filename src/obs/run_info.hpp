// Process/run identity helpers shared by the run manifest and the
// perf-history records: git HEAD discovery, host identity, and
// timestamps.
//
// Lives at the bottom of the observability stack (std + POSIX only) so
// layers below the runner -- the Monte Carlo engine, the tools -- can
// stamp provenance without linking the simulator.
#pragma once

#include <string>

namespace eccsim::obs {

/// HEAD commit of the git repository holding the sources this library was
/// built from, found by walking up from their directory (never shells
/// out); the working directory plays no part.  "unknown" when the source
/// tree is not a checkout.
std::string git_head_sha();

/// Network hostname of this machine ("unknown" when unavailable).
std::string hostname();

/// Logical CPU count visible to this process (>= 1).
unsigned cpu_count();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-09T12:34:56Z").
std::string utc_timestamp();

/// Monotonic clock in seconds, for elapsed/throughput computations.
double monotonic_seconds();

}  // namespace eccsim::obs
