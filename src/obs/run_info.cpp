#include "obs/run_info.hpp"

#include <unistd.h>

#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

namespace eccsim::obs {

namespace {

/// Finds the repository's HEAD commit by walking up from `start` to the
/// first directory containing `.git`, then resolving one level of
/// `ref:` indirection (loose ref file, falling back to packed-refs).
std::string discover_git_sha(const std::filesystem::path& start) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path dir = fs::absolute(start, ec); !dir.empty();
       dir = dir.parent_path()) {
    const fs::path git = dir / ".git";
    if (!fs::exists(git, ec)) {
      if (dir == dir.parent_path()) break;
      continue;
    }
    std::ifstream head(git / "HEAD");
    std::string line;
    if (!head || !std::getline(head, line)) return "unknown";
    constexpr const char* kRefPrefix = "ref: ";
    if (line.rfind(kRefPrefix, 0) != 0) return line;  // detached HEAD
    const std::string ref = line.substr(std::strlen(kRefPrefix));
    std::ifstream loose(git / ref);
    std::string sha;
    if (loose && std::getline(loose, sha) && !sha.empty()) return sha;
    // Ref not loose: scan packed-refs for "<sha> <ref>".
    std::ifstream packed(git / "packed-refs");
    while (packed && std::getline(packed, line)) {
      if (line.size() > ref.size() + 41 && line[0] != '#' &&
          line.compare(line.size() - ref.size(), ref.size(), ref) == 0 &&
          line[40] == ' ') {
        return line.substr(0, 40);
      }
    }
    return "unknown";
  }
  return "unknown";
}

}  // namespace

std::string git_head_sha() { return discover_git_sha(ECCSIM_SOURCE_DIR); }

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0') {
    return "unknown";
  }
  return buf;
}

unsigned cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace eccsim::obs
