// Benchmark-side spans: an in-memory record of the benchmark's calls into
// each layer's public functions, in both clocks.
//
// A span carries a name ("dsm.lock_acquire"), the layer it enters ("dsm"),
// the node whose thread made the call, the driver operation it belongs to,
// and the span that caused it. Simulated start/end are valid for every span.
// Host start/end are attributed only to calls that did not block: a blocking
// call's host interval also covers other fibers' work, so its host duration
// is meaningless. Spans stay in memory and are written out (Chrome
// trace-event JSON) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace perfbench {

using dsmpm2::NodeId;
using dsmpm2::SimTime;

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  const char* layer = "";
  NodeId node = 0;
  std::uint64_t op = 0;      ///< driver operation id (0 = not inside one)
  std::uint32_t id = 0;      ///< 1-based index into the recorder
  std::uint32_t parent = 0;  ///< causing span's id (0 = root)
  SimTime sim_start = 0;
  SimTime sim_end = 0;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  bool host_valid = false;  ///< the call did not block
  bool faulted = false;     ///< an access that took a DSM fault
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint32_t begin(const char* name, const char* layer, NodeId node,
                      std::uint64_t op, std::uint32_t parent, SimTime sim_now);

  /// Closes span `id`. `blocked` drops its host interval.
  void end(std::uint32_t id, SimTime sim_now, bool blocked, bool faulted);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace-event "X" event: the timeline uses
  /// the simulated clock (pid = node), the host duration rides in args.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
