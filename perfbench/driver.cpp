// perfbench_driver — runs one workload for a fixed host-time budget and
// prints every metric, the last line being one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <chrome-trace.json>] [--tiny]
//                    [--lrc-default-gc]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced phases and reports the per-layer metrics of
// the traced one, plus the tracing overhead. Every phase of a run must
// produce identical simulated output (the determinism self-check); any
// oracle mismatch or divergence prints "correct": false and exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kColoringPf;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool lrc_default_gc = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <coloring-ic|coloring-pf|lrc-sync|adaptive-mix>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] [--tiny]"
               " [--lrc-default-gc]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (k == "--workload") {
      if (!parse_workload(value(), &a.workload)) usage(argv[0]);
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--lrc-default-gc") {
      a.lrc_default_gc = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || a.seconds <= 0) usage(argv[0]);
  return a;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimized_build() {
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 && PERFBENCH_SANITIZE == 0;
}

/// One metric as it goes into the final JSON object.
struct Reported {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Reported>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::printf("build: compiler=%s type=%s sanitize=%d nproc=%ld\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE,
              sysconf(_SC_NPROCESSORS_ONLN));
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "refusing to report host metrics from a %s build "
                 "(sanitize=%d); build perfbench with CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    return 3;
  }

  Spec spec;
  spec.workload = args.workload;
  spec.seed = args.seed;
  spec.tiny = args.tiny;
  spec.lrc_default_gc = args.lrc_default_gc;
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              workload_name(spec.workload),
              static_cast<unsigned long long>(spec.seed), args.seconds,
              args.trace ? 1 : 0, spec.tiny ? " (tiny)" : "");

  // Warm-up set-up: lazy allocator and page-table first touches stay out of
  // the timed phases.
  (void)setup_only(spec);

  const std::int64_t start = host_now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(host_now_ns() - start) * 1e-9;
  };
  constexpr std::size_t kMaxPhases = 400;

  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
  SpanRecorder first_trace(true);  // spans of the first traced phase
  double longest = 0;  // wall-clock of the longest phase so far
  for (;;) {
    const std::int64_t t0 = host_now_ns();
    if (args.trace && traced.size() < plain.size()) {
      SpanRecorder rec(true);
      traced.push_back(run_workload(spec, rec));
      if (traced.size() == 1) first_trace = std::move(rec);
    } else {
      SpanRecorder off(false);
      plain.push_back(run_workload(spec, off));
    }
    longest = std::max(longest, static_cast<double>(host_now_ns() - t0) * 1e-9);
    const bool enough = plain.size() >= 2 && (!args.trace || !traced.empty());
    if (enough && (elapsed() + longest > args.seconds ||
                   plain.size() + traced.size() >= kMaxPhases)) {
      break;
    }
  }

  // Set-up samples: one block of back-to-back set-ups after the phases, when
  // the allocator has settled. Earlier in the process glibc still moves its
  // mmap threshold, and set-up times swing by 4x from one sample to the next.
  constexpr int kSetupSamples = 51;
  std::vector<double> setups;
  std::vector<double> pm2_setups;
  std::vector<double> dsm_setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const SetupTimes s = setup_only(spec);
    setups.push_back(s.total_s);
    pm2_setups.push_back(s.pm2_s);
    dsm_setups.push_back(s.dsm_s);
  }

  // Oracles and the determinism self-check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  const Outcome& ref = plain.front();
  std::vector<const Outcome*> all;
  for (const Outcome& o : plain) all.push_back(&o);
  for (const Outcome& o : traced) all.push_back(&o);
  for (const Outcome* o : all) {
    attempted += o->attempted;
    failed += o->failed;
    for (const std::string& f : o->failures) std::printf("ORACLE FAILED: %s\n", f.c_str());
    if (o->fingerprint != ref.fingerprint || o->op_latency_us != ref.op_latency_us) {
      correct = false;
      std::printf("DETERMINISM FAILED:\n  first: %s\n  later: %s\n",
                  ref.fingerprint.c_str(), o->fingerprint.c_str());
    }
  }
  if (failed != 0) correct = false;
  for (const std::string& n : ref.notes) std::printf("note: %s\n", n.c_str());

  std::vector<double> plain_host;
  for (const Outcome& o : plain) plain_host.push_back(o.host_s);
  const double host_s = median(plain_host);
  std::printf("phases: %zu untraced, %zu traced in %.2f s; error_rate %.6g "
              "(%llu failed / %llu attempted)\n",
              plain.size(), traced.size(), elapsed(),
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Reported> out;
  if (!args.trace) {
    const std::vector<double>& lat = ref.op_latency_us;
    out = {
        {"sim_ms", ref.sim_ms, "ms"},
        {"sim_op_p50_us", percentile(lat, 0.50), "us"},
        {"sim_op_p99_us", percentile(lat, 0.99), "us"},
        {"host_s", host_s, "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("%-16s %14s %-5s %-5s %s\n", "end-to-end", "value", "unit", "clock",
                "samples");
    const char* clocks[] = {"sim", "sim", "sim", "host", "host", "host"};
    const std::size_t samples[] = {1, lat.size(), lat.size(), plain_host.size(),
                                   setups.size(), 1};
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::printf("%-16s %14.6g %-5s %-5s %zu\n", out[i].name.c_str(),
                  out[i].value, out[i].unit.c_str(), clocks[i], samples[i]);
    }
  } else {
    std::map<std::string, LayerMetric> layers = traced.front().layers;
    std::vector<double> traced_host;
    for (const Outcome& o : traced) traced_host.push_back(o.host_s);
    // Host-clock layer figures come from the untraced phases, whose host
    // time carries no span overhead.
    const double events = layers["sim.events"].value;
    layers["sim.host_ns_per_event"].value = events > 0 ? host_s * 1e9 / events : 0;
    layers["pm2.setup_ms"] = {median(pm2_setups) * 1e3, "ms", "host",
                              static_cast<std::int64_t>(pm2_setups.size())};
    layers["dsm.setup_ms"] = {median(dsm_setups) * 1e3, "ms", "host",
                              static_cast<std::int64_t>(dsm_setups.size())};
    layers["bench.trace_overhead"] = {host_s > 0 ? median(traced_host) / host_s : 0,
                                      "ratio", "host",
                                      static_cast<std::int64_t>(traced_host.size())};
    std::printf("%-30s %14s %-6s %-6s %s\n", "per-layer", "value", "unit", "clock",
                "samples");
    for (const auto& [name, m] : layers) {
      std::printf("%-30s %14.6g %-6s %-6s %s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str(),
                  m.samples < 0 ? "-" : std::to_string(m.samples).c_str());
      out.push_back({name, m.value, m.unit});
    }
    if (!args.trace_out.empty()) {
      if (first_trace.write_chrome_trace(args.trace_out)) {
        std::printf("trace: %zu spans -> %s\n", first_trace.spans().size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        correct = false;
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
