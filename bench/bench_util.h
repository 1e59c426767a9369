// Shared plumbing for the paper-reproduction benchmarks: deployment
// construction, workload generators, simple statistics and aligned table
// printing. Every figure/table bench runs on VIRTUAL time (sim::SimClock),
// so results are deterministic and independent of the host machine; see
// DESIGN.md §5 for the calibration against the paper's AWS/GCE testbed.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rockfs/attack.h"
#include "rockfs/deployment.h"

namespace rockfs::bench {

/// Command-line knobs shared by all benches.
struct BenchArgs {
  int reps = 2;       // repetitions per cell (paper used 10; determinism makes more redundant)
  bool full = false;  // run the heaviest paper cells too
  bool quick = false; // CI-sized sweep
  std::string metrics_json;  // if set, dump registry + trace JSON here at exit

  /// Exits 2 with usage on stderr for an unknown flag, a flag missing its
  /// value, or a --reps that is not a positive integer.
  static BenchArgs parse(int argc, char** argv) {
    const auto usage = [&](const std::string& problem) {
      std::fprintf(stderr, "%s: %s\n", argv[0], problem.c_str());
      std::fprintf(stderr, "usage: %s [--quick] [--full] [--reps <n>] [--metrics-json <path>]\n",
                   argv[0]);
      std::exit(2);
    };
    const auto value = [&](int& i) -> std::string {
      if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
      return argv[++i];
    };
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--full") {
        args.full = true;
      } else if (a == "--quick") {
        args.quick = true;
      } else if (a == "--reps") {
        const std::string s = value(i);
        const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), args.reps);
        if (ec != std::errc() || end != s.data() + s.size() || args.reps < 1) {
          usage("bad --reps '" + s + "'");
        }
      } else if (a == "--metrics-json") {
        args.metrics_json = value(i);
      } else {
        usage("unknown argument '" + a + "'");
      }
    }
    return args;
  }
};

/// Writes the accumulated metrics registry and span trace to
/// `args.metrics_json` (no-op when the flag was not given). Call it at the
/// end of main so the dump covers the whole run; see EXPERIMENTS.md
/// ("Reading the --metrics-json dumps") for the schema.
inline void dump_metrics_json(const BenchArgs& args) {
  if (args.metrics_json.empty()) return;
  std::FILE* f = std::fopen(args.metrics_json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
    return;
  }
  const std::string metrics = obs::metrics().to_json();
  const std::string trace = obs::tracer().to_json();
  std::fprintf(f, "{\"metrics\":%s,\"trace\":%s}\n", metrics.c_str(), trace.c_str());
  std::fclose(f);
  std::printf("metrics dump written to %s\n", args.metrics_json.c_str());
}

inline double mean(const std::vector<double>& xs) {
  double s = 0;
  for (const double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

inline double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0;
  for (const double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

/// Count and summed virtual duration of a set of spans.
struct SpanTotal {
  std::size_t count = 0;
  double ms = 0.0;
};

/// Sums the spans named `name` (and labelled `label`, when non-empty) in the
/// subtree of the latest span named `root` — by default the latest
/// scfs.close, i.e. the close that just returned. Durations are the spans'
/// own (inclusive) virtual times, so the result prices one layer's work
/// inside the close without a toggled-off baseline run.
inline SpanTotal span_total(const std::string& name, const std::string& label = "",
                            const std::string& root = "scfs.close") {
  const auto events = obs::tracer().events();
  std::uint64_t root_id = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> parent;
  for (const auto& e : events) {
    parent[e.id] = e.parent;
    if (e.name == root && e.id > root_id) root_id = e.id;
  }
  SpanTotal total;
  if (root_id == 0) return total;
  for (const auto& e : events) {
    if (e.name != name || (!label.empty() && e.label != label)) continue;
    std::uint64_t id = e.parent;
    while (id != 0 && id != root_id) {
      const auto it = parent.find(id);
      id = it == parent.end() ? 0 : it->second;
    }
    if (id != root_id) continue;
    ++total.count;
    total.ms += static_cast<double>(e.duration_us) / 1e3;
  }
  return total;
}

/// Fresh deployment configured for one benchmark cell.
inline core::Deployment make_deployment(bool rockfs_logging, scfs::SyncMode mode,
                                        std::uint64_t seed) {
  set_log_level(LogLevel::kError);  // keep bench tables clean
  core::DeploymentOptions opts;
  opts.seed = seed;
  opts.agent.enable_logging = rockfs_logging;
  opts.agent.enable_cache_crypto = rockfs_logging;
  opts.agent.sync_mode = mode;
  return core::Deployment(opts);
}

/// Writes a fresh file of `size` bytes through the agent (one logged close).
inline void create_file(core::RockFsAgent& agent, const std::string& path,
                        std::size_t size, Rng& rng) {
  agent.write_file(path, rng.next_bytes(size)).expect("bench create_file");
}

/// Appends ~30% of the file's current size (the paper's §6.1 update).
inline void update_file_30pct(core::RockFsAgent& agent, const std::string& path,
                              Rng& rng) {
  auto fd = agent.open(path);
  fd.expect("bench open");
  auto st = agent.stat(path);
  const std::size_t extra = std::max<std::size_t>(st.expect("stat").size * 3 / 10, 1);
  agent.append(*fd, rng.next_bytes(extra)).expect("bench append");
  agent.close(*fd).expect("bench close");
}

/// Header + row printers for paper-style tables.
inline void print_header(const char* title, const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title);
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------------");
  std::printf("\n");
}

inline void print_cell(const char* fmt, double v) { std::printf(fmt, v); }

}  // namespace rockfs::bench
