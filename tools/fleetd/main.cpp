// fleetd: fleet-scale Monte Carlo front door (run, shard, serve).
//
//   fleetd run --spec FILE [options]       one fleet evaluation, to a file
//   fleetd serve --socket PATH [options]   daemon on a Unix-domain socket
//   fleetd submit --socket PATH --spec FILE [--wait]
//   fleetd status --socket PATH --hash H | --spec FILE
//   fleetd results --socket PATH --hash H | --spec FILE
//   fleetd ping|shutdown --socket PATH
//   fleetd hash --spec FILE                print the config-hash cache key
//   fleetd --worker ...                    internal: one work unit
//
// The run/serve paths share the sharding Coordinator, so `fleetd run
// --shards 8 --mode worker` and a daemon-served submit produce the same
// bytes as a single-shard in-process run -- the property
// the identity.fleet_shards and identity.fleet_daemon ctests gate.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fleet/coordinator.hpp"
#include "fleet/model.hpp"
#include "fleet/service.hpp"
#include "fleet/spec.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/run_info.hpp"
#include "runner/json.hpp"

namespace {

using namespace eccsim;

int usage(FILE* out, int code) {
  std::fprintf(
      out,
      "usage: fleetd <command> [options]\n"
      "  run --spec FILE       evaluate one fleet spec\n"
      "      --out FILE        result JSON (default results/fleet/<name>."
      "json)\n"
      "      --shards N        work units (default 1)\n"
      "      --mode M          inprocess | worker (default inprocess)\n"
      "      --threads N       in-process pool width (default "
      "RUNNER_THREADS)\n"
      "      --chunk-size N    nodes per chunk (default 256; results are\n"
      "                        identical for any value)\n"
      "      --scale N         divide every pool's node count by N (smoke\n"
      "                        runs)\n"
      "      --work-dir DIR    worker-mode scratch dir (default\n"
      "                        results/fleet/work)\n"
      "  serve --socket PATH   run the daemon until shutdown\n"
      "      --results DIR     cache/manifest root (default results/fleet)\n"
      "      --queue N         bounded submit queue depth (default 8)\n"
      "      plus run's --shards/--mode/--threads/--chunk-size/--work-dir\n"
      "  submit --socket PATH --spec FILE [--wait]\n"
      "                        enqueue a spec; --wait blocks until done\n"
      "  status --socket PATH --hash H | --spec FILE\n"
      "  results --socket PATH --hash H | --spec FILE\n"
      "  ping --socket PATH    liveness probe\n"
      "  shutdown --socket PATH\n"
      "  hash --spec FILE      print the canonical config hash\n"
      "  --worker --spec FILE --chunk-lo A --chunk-hi B --chunk-size C\n"
      "      --out FILE        internal work-unit mode (spawned by the\n"
      "                        coordinator)\n");
  return code;
}

/// `--flag value` / `--flag=value`, advancing i; nullptr if arg != flag.
const char* flag_value(int argc, char** argv, int& i, const char* name) {
  const std::string arg = argv[i];
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
  if (arg != name) return nullptr;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "fleetd: %s requires a value\n", name);
    std::exit(2);
  }
  return argv[++i];
}

fleet::FleetSpec load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleetd: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  fleet::FleetSpec spec = fleet::spec_from_json(runner::Json::parse(os.str()));
  const std::string diag = fleet::validate(spec);
  if (!diag.empty()) throw std::runtime_error(diag);
  return spec;
}

bool parse_mode(const std::string& text, fleet::RunOptions::Mode& mode) {
  if (text == "inprocess") {
    mode = fleet::RunOptions::Mode::kInProcess;
    return true;
  }
  if (text == "worker") {
    mode = fleet::RunOptions::Mode::kWorkerProcess;
    return true;
  }
  return false;
}

/// Shared option block of `run` and `serve`.
struct ExecFlags {
  fleet::RunOptions run;
  std::uint64_t scale = 1;

  /// Tries to consume argv[i]; false when the flag is not ours.
  bool consume(int argc, char** argv, int& i) {
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--shards")) != nullptr) {
      run.shards = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = flag_value(argc, argv, i, "--mode")) != nullptr) {
      if (!parse_mode(v, run.mode)) {
        std::fprintf(stderr, "fleetd: unknown --mode '%s'\n", v);
        std::exit(2);
      }
    } else if ((v = flag_value(argc, argv, i, "--threads")) != nullptr) {
      run.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = flag_value(argc, argv, i, "--chunk-size")) != nullptr) {
      run.chunk_size = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = flag_value(argc, argv, i, "--scale")) != nullptr) {
      scale = std::strtoull(v, nullptr, 10);
    } else if ((v = flag_value(argc, argv, i, "--work-dir")) != nullptr) {
      run.work_dir = v;
    } else {
      return false;
    }
    return true;
  }
};

void start_manifest(obs::Manifest& man, int argc, char** argv,
                    const std::string& path) {
  man.tool = "fleetd";
  for (int i = 1; i < argc; ++i) man.args.emplace_back(argv[i]);
  man.git_sha = obs::git_head_sha();
  man.seed_regime = "fleet spec seed";
  man.host = obs::hostname();
  man.host_cpus = obs::cpu_count();
  man.started_utc = obs::utc_timestamp();
  obs::write_manifest(path, man);
}

int cmd_worker(int argc, char** argv) {
  std::string spec_path, out_path;
  std::uint64_t chunk_lo = 0, chunk_hi = 0;
  unsigned chunk_size = 0;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--spec")) != nullptr) {
      spec_path = v;
    } else if ((v = flag_value(argc, argv, i, "--out")) != nullptr) {
      out_path = v;
    } else if ((v = flag_value(argc, argv, i, "--chunk-lo")) != nullptr) {
      chunk_lo = std::strtoull(v, nullptr, 10);
    } else if ((v = flag_value(argc, argv, i, "--chunk-hi")) != nullptr) {
      chunk_hi = std::strtoull(v, nullptr, 10);
    } else if ((v = flag_value(argc, argv, i, "--chunk-size")) != nullptr) {
      chunk_size = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "fleetd --worker: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (spec_path.empty() || out_path.empty() || chunk_size == 0 ||
      chunk_hi <= chunk_lo) {
    std::fprintf(stderr,
                 "fleetd --worker: need --spec, --out, --chunk-size, and a "
                 "non-empty chunk range\n");
    return 2;
  }
  const fleet::FleetModel model(load_spec(spec_path));
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "fleetd --worker: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  fleet::compute_unit(model, chunk_lo, chunk_hi, chunk_size, out);
  out.flush();
  return out ? 0 : 1;
}

int cmd_run(int argc, char** argv) {
  std::string spec_path, out_path;
  ExecFlags exec;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--spec")) != nullptr) {
      spec_path = v;
    } else if ((v = flag_value(argc, argv, i, "--out")) != nullptr) {
      out_path = v;
    } else if (!exec.consume(argc, argv, i)) {
      std::fprintf(stderr, "fleetd run: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "fleetd run: --spec is required\n");
    return 2;
  }
  fleet::FleetSpec spec = load_spec(spec_path);
  spec.scale_nodes(exec.scale);
  if (out_path.empty()) out_path = "results/fleet/" + spec.name + ".json";

  obs::Heartbeat& hb = obs::Heartbeat::global();
  hb.set_tool("fleetd");
  obs::Manifest& man = obs::manifest();
  const std::string manifest_path = "results/fleetd.manifest.json";
  start_manifest(man, argc, argv, manifest_path);
  man.extra.emplace_back("config_hash", fleet::config_hash(spec));
  const double start = obs::monotonic_seconds();
  const auto finish = [&](int rc) {
    obs::note_exit_code(rc);
    man.finished_utc = obs::utc_timestamp();
    man.wall_seconds = obs::monotonic_seconds() - start;
    if (man.status == "running") man.status = "completed";
    obs::write_manifest(manifest_path, man);
    return rc;
  };

  fleet::RunOptions run = exec.run;
  run.heartbeat = &hb;
  if (run.mode == fleet::RunOptions::Mode::kWorkerProcess) {
    run.worker_binary = std::filesystem::canonical("/proc/self/exe").string();
    if (run.work_dir.empty()) run.work_dir = "results/fleet/work";
  }
  const fleet::Coordinator coordinator(spec);
  const fleet::FleetResult result = coordinator.run(run);
  const std::string doc = fleet::result_to_json(result).dump(2) + "\n";
  if (!obs::atomic_write_file(out_path, doc)) {
    std::fprintf(stderr, "fleetd run: cannot write %s\n", out_path.c_str());
    return finish(1);
  }
  std::printf("fleet %-12s %" PRIu64
              " nodes  events %.1f  lost %" PRIu64
              "  availability %.9f  -> %s\n",
              result.name.c_str(), result.nodes, result.uncorrected_events,
              result.nodes_lost, result.availability, out_path.c_str());
  return finish(0);
}

int cmd_serve(int argc, char** argv) {
  fleet::ServiceOptions opts;
  ExecFlags exec;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--socket")) != nullptr) {
      opts.socket_path = v;
    } else if ((v = flag_value(argc, argv, i, "--results")) != nullptr) {
      opts.results_dir = v;
    } else if ((v = flag_value(argc, argv, i, "--queue")) != nullptr) {
      opts.queue_capacity = std::strtoull(v, nullptr, 10);
    } else if (!exec.consume(argc, argv, i)) {
      std::fprintf(stderr, "fleetd serve: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "fleetd serve: --socket is required\n");
    return 2;
  }
  opts.run = exec.run;
  if (opts.run.mode == fleet::RunOptions::Mode::kWorkerProcess) {
    opts.run.worker_binary =
        std::filesystem::canonical("/proc/self/exe").string();
  }

  obs::Heartbeat::global().set_tool("fleetd");
  obs::Manifest& man = obs::manifest();
  const std::string manifest_path = opts.results_dir + "/fleetd.manifest.json";
  start_manifest(man, argc, argv, manifest_path);
  const double start = obs::monotonic_seconds();

  fleet::Service service(opts);
  service.start();
  std::printf("fleetd: serving on %s\n", opts.socket_path.c_str());
  std::fflush(stdout);
  service.wait();
  service.stop();

  man.finished_utc = obs::utc_timestamp();
  man.wall_seconds = obs::monotonic_seconds() - start;
  man.status = "completed";
  man.extra.emplace_back("requests_served",
                         std::to_string(service.requests_served()));
  obs::write_manifest(manifest_path, man);
  return 0;
}

int cmd_client(int argc, char** argv) {
  const std::string op = argv[1];
  std::string socket_path, spec_path, hash;
  bool wait = false;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    const std::string arg = argv[i];
    if ((v = flag_value(argc, argv, i, "--socket")) != nullptr) {
      socket_path = v;
    } else if ((v = flag_value(argc, argv, i, "--spec")) != nullptr) {
      spec_path = v;
    } else if ((v = flag_value(argc, argv, i, "--hash")) != nullptr) {
      hash = v;
    } else if (arg == "--wait") {
      wait = true;
    } else {
      std::fprintf(stderr, "fleetd %s: unknown flag '%s'\n", op.c_str(),
                   arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "fleetd %s: --socket is required\n", op.c_str());
    return 2;
  }
  runner::Json req = fleet::make_request(op);
  if (op == "submit") {
    if (spec_path.empty()) {
      std::fprintf(stderr, "fleetd submit: --spec is required\n");
      return 2;
    }
    req.set("spec", fleet::to_json(load_spec(spec_path)));
    if (wait) req.set("wait", true);
  } else if (op == "status" || op == "results") {
    if (!hash.empty()) {
      req.set("hash", hash);
    } else if (!spec_path.empty()) {
      req.set("spec", fleet::to_json(load_spec(spec_path)));
    } else {
      std::fprintf(stderr, "fleetd %s: need --hash or --spec\n", op.c_str());
      return 2;
    }
  }
  const runner::Json resp = fleet::fleet_request(socket_path, req);
  std::printf("%s\n", resp.dump(2).c_str());
  const bool ok = resp.contains("ok") && resp.at("ok").as_bool();
  return ok ? 0 : 1;
}

int cmd_hash(int argc, char** argv) {
  std::string spec_path;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--spec")) != nullptr) {
      spec_path = v;
    } else {
      std::fprintf(stderr, "fleetd hash: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "fleetd hash: --spec is required\n");
    return 2;
  }
  std::printf("%s\n", fleet::config_hash(load_spec(spec_path)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, 2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "--worker") return cmd_worker(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "submit" || cmd == "status" || cmd == "results" ||
        cmd == "ping" || cmd == "shutdown") {
      return cmd_client(argc, argv);
    }
    if (cmd == "hash") return cmd_hash(argc, argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      return usage(stdout, 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "fleetd: unknown command '%s'\n", cmd.c_str());
  return usage(stderr, 2);
}
