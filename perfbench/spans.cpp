#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint32_t SpanRecorder::begin(const char* name, const char* layer,
                                  NodeId node, std::uint64_t op,
                                  std::uint32_t parent, SimTime sim_now) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.layer = layer;
  s.node = node;
  s.op = op;
  s.parent = parent;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.sim_start = sim_now;
  s.host_start_ns = host_now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::end(std::uint32_t id, SimTime sim_now, bool blocked,
                       bool faulted) {
  if (id == 0) return;
  const std::int64_t host_end = host_now_ns();
  Span& s = spans_[id - 1];
  s.sim_end = sim_now;
  s.host_end_ns = host_end;
  s.host_valid = !blocked;
  s.faulted = faulted;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated\"},"
         "\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long host_ns =
        s.host_valid ? static_cast<long long>(s.host_end_ns - s.host_start_ns)
                     : -1;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                  "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"op\":%llu,\"host_ns\":%lld,\"faulted\":%s}}%s\n",
                  s.name, s.layer, static_cast<unsigned>(s.node),
                  static_cast<unsigned long long>(s.node), dsmpm2::to_us(s.sim_start),
                  dsmpm2::to_us(s.sim_end - s.sim_start), s.id, s.parent,
                  static_cast<unsigned long long>(s.op), host_ns,
                  s.faulted ? "true" : "false", i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
