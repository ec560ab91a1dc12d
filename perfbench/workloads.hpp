// The benchmark's four workloads (see NOTES.md for why each was chosen).
//
// Each workload is a closed loop: one simulated worker per node issues its
// next operation only after the previous one returns. One call to
// run_workload() sets up a fresh runtime + DSM + shared data, runs the
// measured phase once, checks the outputs against the workload's oracles,
// and returns every figure of that phase. setup_only() times the set-up
// alone.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Workload { kColoringIc, kColoringPf, kLrcSync, kAdaptiveMix };

/// Parses a workload name ("coloring-ic", ...); false when unknown.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);
bool is_sync(Workload w);

struct Spec {
  Workload workload = Workload::kColoringPf;
  std::uint64_t seed = 1;
  /// Self-test scale: a few rounds / a short map, seconds not minutes.
  bool tiny = false;
  /// lrc-sync only: run the default epoch GC (flush at barriers only)
  /// instead of per-interval flushing — reproduces a known lost-update defect.
  bool lrc_default_gc = false;
};

/// One per-layer figure: value, unit, clock and (latencies) sample count.
struct LayerMetric {
  double value = 0;
  std::string unit;
  std::string clock;  ///< "sim", "host" or "count"
  std::int64_t samples = -1;  ///< -1 = not a distribution
};

struct SetupTimes {
  double total_s = 0;
  double pm2_s = 0;  ///< pm2::Runtime construction
  double dsm_s = 0;  ///< Dsm (+ Hyperion runtime) construction and shared data
};

struct Outcome {
  double host_s = 0;  ///< host wall-clock of the measured phase
  double sim_ms = 0;  ///< simulated makespan of the measured phase
  /// Simulated latency of every driver operation, in µs.
  std::vector<double> op_latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< oracle mismatches, human-readable
  /// Simulated output that must repeat exactly (determinism self-check).
  std::string fingerprint;
  /// Per-layer figures of this phase (counters always; span-derived
  /// latencies only when `spans` recorded).
  std::map<std::string, LayerMetric> layers;
  /// Human-readable shape facts (protocol landings and the like).
  std::vector<std::string> notes;
};

/// Linear-interpolated percentile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
double percentile(std::vector<double> v, double q);

/// Sets up, runs and checks one measured phase. Spans are recorded into
/// `spans` when it is enabled (the traced run).
Outcome run_workload(const Spec& spec, SpanRecorder& spans);

/// Only the set-up (then tears it down): one timed set-up sample.
SetupTimes setup_only(const Spec& spec);

}  // namespace perfbench
