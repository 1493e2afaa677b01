// Run manifest: one JSON document per run recording everything needed to
// interpret (and re-run) the artifacts a bench or tool produced -- git
// SHA, DRAM generation, seed regime, thread count, host identity,
// start/end timestamps, and exit status.  It is the only provenance
// record of a process: every result document a bench writes embeds
// to_json(manifest()) as its `metadata`.
//
// The bench front-end (bench::init) writes the manifest twice: once at
// startup with status "running" and once from its atexit hook with
// status "completed"/"failed" plus the final wall-clock and peak RSS.  A
// reader that finds a stale "running" manifest knows the process died
// without reaching its exit hook.  Writes go through atomic_write_file,
// so pollers never see a torn document.
//
// The Monte Carlo engine flags checkpoint restores via note_resumed(), so
// a kill/resume run's final manifest records `"resumed": true`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace eccsim::runner {
class Json;
}

namespace eccsim::obs {

struct Manifest {
  std::string tool;                ///< binary name
  std::vector<std::string> args;   ///< command-line arguments (no argv[0])
  std::string git_sha;
  std::string dram;                ///< --dram generation ("ddr3", ...)
  std::string seed_regime;         ///< how stimulus seeds were derived
  unsigned threads = 0;            ///< worker thread count
  std::string host;
  unsigned host_cpus = 0;
  std::string started_utc;
  std::string finished_utc;        ///< "" while running
  double wall_seconds = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::string status = "running";  ///< running -> completed | failed
  int exit_code = 0;
  bool resumed = false;            ///< restored MC chunks from a checkpoint
  /// Free-form extra fields (fidelity mode, trace dirs, ...).
  std::vector<std::pair<std::string, std::string>> extra;
};

runner::Json to_json(const Manifest& m);

/// Atomically writes `m` to `path` (creating parent directories).
bool write_manifest(const std::string& path, const Manifest& m);

/// The process-global manifest that bench::init and the tools fill in and
/// write at startup/exit.  Not thread-safe; mutate from the main thread
/// only (worker threads use the note_* helpers below).
Manifest& manifest();

/// Records that this run restored state from a checkpoint (sets
/// manifest().resumed).  Safe to call from worker threads.
void note_resumed();

/// Records a non-zero exit decided mid-run, so the atexit manifest write
/// reports "failed" with this code.  Safe to call from worker threads.
void note_exit_code(int code);

/// The manifest of a tool that runs without bench::init (benchtool,
/// tracetool).  Construction fills manifest() -- tool, args, git
/// SHA, seed regime, threads, host, CPU count, start time -- and writes
/// it to `path` with status "running"; finish() closes it.
class ToolManifest {
 public:
  ToolManifest(const char* tool, int argc, char** argv, std::string path,
               std::string seed_regime, unsigned threads);

  /// Stamps exit code `rc`, end time, wall-clock and peak RSS, writes the
  /// manifest again ("completed", or "failed" for a non-zero code) and
  /// returns `rc`.
  int finish(int rc);

 private:
  std::string path_;
  double start_;
};

}  // namespace eccsim::obs
