#include "obs/manifest.hpp"

#include <mutex>

#include "obs/heartbeat.hpp"
#include "runner/json.hpp"

namespace eccsim::obs {

namespace {

std::mutex g_manifest_mu;

}  // namespace

runner::Json to_json(const Manifest& m) {
  runner::Json doc = runner::Json::object();
  doc.set("schema", "eccsim.manifest/1");
  doc.set("tool", m.tool);
  runner::Json args = runner::Json::array();
  for (const auto& a : m.args) args.push_back(a);
  doc.set("args", args);
  doc.set("git_sha", m.git_sha);
  doc.set("dram", m.dram);
  doc.set("seed_regime", m.seed_regime);
  doc.set("threads", static_cast<std::uint64_t>(m.threads));
  doc.set("host", m.host);
  doc.set("host_cpus", static_cast<std::uint64_t>(m.host_cpus));
  doc.set("started_utc", m.started_utc);
  doc.set("finished_utc",
          m.finished_utc.empty() ? runner::Json() : runner::Json(m.finished_utc));
  doc.set("wall_seconds", m.wall_seconds);
  doc.set("peak_rss_bytes", m.peak_rss_bytes);
  doc.set("status", m.status);
  doc.set("exit_code", static_cast<std::int64_t>(m.exit_code));
  doc.set("resumed", m.resumed);
  if (!m.extra.empty()) {
    runner::Json extra = runner::Json::object();
    for (const auto& [key, value] : m.extra) extra.set(key, value);
    doc.set("extra", extra);
  }
  return doc;
}

bool write_manifest(const std::string& path, const Manifest& m) {
  return atomic_write_file(path, to_json(m).dump(2) + "\n");
}

Manifest& manifest() {
  static Manifest m;
  return m;
}

void note_resumed() {
  std::lock_guard<std::mutex> lock(g_manifest_mu);
  manifest().resumed = true;
}

void note_exit_code(int code) {
  std::lock_guard<std::mutex> lock(g_manifest_mu);
  Manifest& m = manifest();
  m.exit_code = code;
  if (code != 0) m.status = "failed";
}

}  // namespace eccsim::obs
