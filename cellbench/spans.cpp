#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <map>

namespace cellbench {

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Spans::open(std::string name, std::size_t parent,
                        std::string cell) {
  const std::int64_t t = now_ns();
  spans_.push_back(Span{std::move(name), std::move(cell), parent, t, t});
  return spans_.size() - 1;
}

double Spans::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<Spans::SelfTime> Spans::self_times() const {
  // Children of one span run one after another on this thread, so the
  // part of a span its children cover is the sum of their durations.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent != kNoParent) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<SelfTime> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back(SelfTime{s.name});
    SelfTime& t = out[it->second];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.work += s.work;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered[i]) * 1e-9;
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"cell\": \"" << s.cell << "\", \"parent\": ";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"work\": " << s.work << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_time\": [\n";
  const auto table = self_times();
  for (std::size_t i = 0; i < table.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"count\": %llu, \"work\": %llu, "
                  "\"total_s\": %.9f, \"self_s\": %.9f}%s\n",
                  table[i].name.c_str(),
                  static_cast<unsigned long long>(table[i].count),
                  static_cast<unsigned long long>(table[i].work),
                  table[i].total_s, table[i].self_s,
                  i + 1 < table.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace cellbench
