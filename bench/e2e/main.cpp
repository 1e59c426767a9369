// rockfs_bench --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
//
// Prints one context line (host fingerprint, sample counts), one JSON line
// per metric {"workload","metric","value","unit"}, and as the last line the
// summary {"correct","attempted","failed","metrics"}: the end-to-end
// metrics for a plain run, the per-layer metrics for a --trace run. Exits 1
// when an op fails or a correctness gate trips, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"

namespace rockfs::e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "rockfs_bench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: rockfs_bench --workload <name> --seed <n> [--seconds <s>] "
               "[--trace [0|1]] [--smoke]\nworkloads:");
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = value(i);
    } else if (flag == "--seed") {
      const std::string s = value(i);
      const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), a.seed);
      if (ec != std::errc() || end != s.data() + s.size()) usage("bad --seed '" + s + "'");
      a.have_seed = true;
    } else if (flag == "--seconds") {
      const std::string s = value(i);
      char* end = nullptr;
      a.seconds = std::strtod(s.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) {
        usage("bad --seconds '" + s + "'");
      }
    } else if (flag == "--trace") {
      a.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        a.trace = argv[++i][0] == '1';
      }
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.have_seed) usage("--seed is required");
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

// ---- JSON output ----

std::string num(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double loadavg_1m() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

std::string host_fingerprint(const Args& args, double load_start) {
  std::string model = "unknown";
  bool aes = false, sha = false, avx2 = false, ssse3 = false;
#if defined(__x86_64__) || defined(__i386__)
  unsigned brand[12] = {0};
  if (__get_cpuid(0x80000002, &brand[0], &brand[1], &brand[2], &brand[3]) &&
      __get_cpuid(0x80000003, &brand[4], &brand[5], &brand[6], &brand[7]) &&
      __get_cpuid(0x80000004, &brand[8], &brand[9], &brand[10], &brand[11])) {
    char text[49] = {0};
    std::memcpy(text, brand, 48);
    model = text;
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
  }
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    aes = (c >> 25) & 1;
    ssse3 = (c >> 9) & 1;
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    avx2 = (b >> 5) & 1;
    sha = (b >> 29) & 1;
  }
#endif
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  std::string out = "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + quoted(model);
  out += ",\"cpu_flags\":{\"aes\":" + std::string(flag(aes)) +
         ",\"sha_ni\":" + flag(sha) + ",\"avx2\":" + flag(avx2) +
         ",\"ssse3\":" + flag(ssse3) + "}";
  out += ",\"compiler\":" + quoted(ROCKFS_COMPILER);
  out += ",\"build_type\":" + quoted(ROCKFS_BUILD_TYPE);
  out += ",\"git_sha\":" + quoted(ROCKFS_GIT_SHA);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"loadavg_1m_start\":" + num(load_start);
  out += ",\"loadavg_1m_end\":" + num(loadavg_1m()) + "}";
  return out;
}

// ---- statistics ----

/// Nearest-rank percentile (0 < p <= 100) of an unsorted sample.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of the op rates of 5 equal-op segments of the measured ops.
double segment_rate(const std::vector<double>& op_seconds) {
  constexpr std::size_t kSegments = 5;
  std::vector<double> rates;
  const std::size_t n = op_seconds.size();
  for (std::size_t s = 0; s < kSegments; ++s) {
    const std::size_t lo = n * s / kSegments, hi = n * (s + 1) / kSegments;
    double busy = 0;
    for (std::size_t i = lo; i < hi; ++i) busy += op_seconds[i];
    if (hi > lo && busy > 0) rates.push_back(static_cast<double>(hi - lo) / busy);
  }
  return percentile(rates, 50);
}

/// Host time in reference-host seconds. On shared hosts the library's ops
/// slow down by up to half for seconds at a time (memory-system contention
/// from neighbours), which no run length averages away. The clock re-times
/// the speed reference whenever 25 ms have passed, and scales each interval
/// by kReferencePassSeconds over the mean of the passes that bracket it.
/// Passes are excluded from every interval.
class ReferenceClock {
 public:
  /// Median speed_reference_seconds() between ops on the reference host
  /// (4-core x86, the host baseline/ was taken on) in uncontended runs.
  static constexpr double kReferencePassSeconds = 1.6e-3;

  ReferenceClock() : pass_(take_pass()), last_(Clock::now()) {}

  /// Scaled seconds elapsed so far; takes a reference pass when one is due.
  double seconds() {
    const double elapsed = std::chrono::duration<double>(Clock::now() - last_).count();
    since_pass_ += elapsed;
    double pass = pass_;
    if (since_pass_ >= 0.025) {
      pass_ = take_pass();
      pass = (pass + pass_) / 2;
      since_pass_ = 0;
    }
    total_ += elapsed * kReferencePassSeconds / pass;
    last_ = Clock::now();
    return total_;
  }

  double median_pass_seconds() const { return percentile(passes_, 50); }

 private:
  double take_pass() {
    passes_.push_back(speed_reference_seconds());
    return passes_.back();
  }

  std::vector<double> passes_;
  double pass_;
  Clock::time_point last_;
  double since_pass_ = 0;
  double total_ = 0;
};

// ---- the run ----

struct RunResult {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::size_t attempted = 0;
  std::size_t latency_samples = 0;
  double reference_pass_ms = 0;  // median host-speed reference pass
};

RunResult run(const Args& args, Workload& wl) {
  RunResult out;
  const auto budget = static_cast<std::size_t>(
      std::llround(wl.ops_per_second_budget() * args.seconds));
  const std::size_t per_round = std::max<std::size_t>(1, (budget + kRounds - 1) / kRounds);

  std::vector<double> headline_ms, setup_s, op_seconds, storage_amp;
  ReferenceClock host;
  double traced_s = 0, plain_s = 0;
  std::size_t traced_n = 0, plain_n = 0, recovered = 0, applied = 0;
  std::uint64_t user_bytes = 0;
  LayerTimes layers;
  std::map<std::string, std::uint64_t> measured;  // counter deltas, measured phases
  const auto run_start = counter_snapshot();

  for (std::size_t round = 0; round < kRounds; ++round) {
    Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + round);
    core::DeploymentOptions opts = wl.deployment_options();
    opts.seed = args.seed * 131 + round;

    Round r;
    const double setup_start = host.seconds();
    r.dep = std::make_unique<core::Deployment>(opts);
    r.agent = &r.dep->add_user("alice");
    wl.setup(r, per_round, rng);
    setup_s.push_back(host.seconds() - setup_start);
    r.written.clear();

    auto& tracer = obs::tracer();
    const auto before = counter_snapshot();
    for (std::size_t i = 0; i < per_round; ++i) {
      // A --trace run traces the ops whose index has an even number of set
      // bits (the Thue-Morse sequence): half of them, and aperiodic, so a
      // periodic op such as small-meta's 32nd-op login falls on both sides.
      // The untraced half measures the tracer's own host cost.
      const bool traced = args.trace && std::popcount(i) % 2 == 0;
      if (traced) {
        tracer.reset();
        tracer.set_enabled(true);
      }
      const auto v0 = r.dep->clock()->now_us();
      const double h0 = host.seconds();
      const OpResult res = wl.op(r, i, rng);
      const double op_host = host.seconds() - h0;
      const auto latency = r.dep->clock()->now_us() - v0;
      if (traced) {
        tracer.set_enabled(false);
        if (tracer.dropped_count() != 0) {
          throw GateFailure("trace ring dropped " + std::to_string(tracer.dropped_count()) +
                            " spans in one op");
        }
        attribute_op(tracer.events(), latency, layers);
        traced_s += op_host;
        ++traced_n;
      } else {
        plain_s += op_host;
        ++plain_n;
      }
      op_seconds.push_back(op_host);
      if (res.headline_us >= 0) headline_ms.push_back(static_cast<double>(res.headline_us) / 1e3);
      if (res.entries_applied) {
        ++recovered;
        applied += *res.entries_applied;
      }
    }
    const auto after = counter_snapshot();
    for (const auto& [key, value] : after) {
      const auto b = before.find(key);
      measured[key] += value - (b == before.end() ? 0 : b->second);
    }
    out.attempted += per_round;

    verify_written(r);
    std::uint64_t stored = 0;
    for (const auto& cloud : r.dep->clouds()) stored += cloud->stored_bytes();
    storage_amp.push_back(ratio(static_cast<double>(stored),
                                static_cast<double>(r.shadow.live_bytes())));
    user_bytes += r.user_bytes_written;
  }
  const auto run_end = counter_snapshot();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double storage_sum = 0;
  for (const double s : storage_amp) storage_sum += s;
  out.latency_samples = headline_ms.size();
  out.reference_pass_ms = host.median_pass_seconds() * 1e3;
  out.e2e = {
      {"lat_p50_ms", percentile(headline_ms, 50), "ms"},
      {"lat_p90_ms", percentile(headline_ms, 90), "ms"},
      {"wire_amp",
       ratio(static_cast<double>(counter_sum(run_end, "cloud.put.bytes{") -
                                 counter_sum(run_start, "cloud.put.bytes{")),
             static_cast<double>(user_bytes)),
       "count"},
      {"storage_amp", storage_sum / static_cast<double>(storage_amp.size()), "count"},
      {"ops_per_s", segment_rate(op_seconds), "1/s"},
      {"setup_s", percentile(setup_s, 50), "s"},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
  };

  // Counts per measured op (every op, traced or not).
  const auto ops = static_cast<double>(out.attempted);
  const auto count = [&](const std::string& prefix, const std::string& infix = "") {
    return static_cast<double>(counter_sum(measured, prefix, infix));
  };
  out.layer = {
      {"coord.rounds_per_op", count("coord.ops{") / ops, "count"},
      {"depsky.attempts_per_op", count("depsky.attempts") / ops, "count"},
      {"depsky.retries_per_op", count("depsky.retries") / ops, "count"},
      {"cloud.requests_per_op", count("cloud.", ".count{") / ops, "count"},
      {"cloud.put_bytes_per_op", count("cloud.put.bytes{") / ops, "B"},
      {"cloud.get_bytes_per_op", count("cloud.get.bytes{") / ops, "B"},
      {"cache.data_hit_ratio",
       ratio(count("cache.data.hits"), count("cache.data.hits") + count("cache.data.misses")),
       "ratio"},
      {"cache.meta_hit_ratio",
       ratio(count("cache.meta.hits"), count("cache.meta.hits") + count("cache.meta.misses")),
       "ratio"},
      {"cache.evictions_per_op", count("cache.data.evictions") / ops, "count"},
      {"log.append_bytes_per_op", count("log.append.bytes") / ops, "B"},
      {"journal.intents_per_op", count("journal.intents.recorded") / ops, "count"},
      {"recovery.entries_applied_per_file",
       ratio(static_cast<double>(applied), static_cast<double>(recovered)), "count"},
  };
  if (!args.trace) return out;

  // Virtual time per traced op, by layer; the rows sum to the op latency.
  const auto per_op = [&](std::int64_t us) {
    return ratio(static_cast<double>(us) / 1e3, static_cast<double>(layers.ops));
  };
  for (const auto& layer : kLayers) {
    out.layer.push_back({"vt." + layer + "_ms_per_op", per_op(layers.busy_us[layer]), "ms"});
  }
  // Only these layers own fan-out groups; a wait anywhere else would leave
  // the reported rows short of the op latency.
  const std::vector<std::string> wait_layers = {"scfs", "log", "depsky"};
  for (const auto& [layer, us] : layers.wait_us) {
    if (us != 0 && std::find(wait_layers.begin(), wait_layers.end(), layer) == wait_layers.end()) {
      throw GateFailure("fan-out wait attributed to unreported layer " + layer);
    }
  }
  for (const auto& layer : wait_layers) {
    out.layer.push_back({"vt." + layer + "_wait_ms_per_op", per_op(layers.wait_us[layer]), "ms"});
  }
  out.layer.push_back({"vt.untraced_ms_per_op", per_op(layers.untraced_us), "ms"});

  for (const auto& [name, value] : run_host_probes(wl.file_size())) {
    const std::string unit = name.ends_with("_MBps") ? "MB/s"
                             : name.ends_with("_ms") ? "ms"
                                                     : "us";
    out.layer.push_back({name, value, unit});
  }
  out.layer.push_back({"host.trace_overhead_pct",
                       100 * (ratio(ratio(traced_s, static_cast<double>(traced_n)),
                                    ratio(plain_s, static_cast<double>(plain_n))) -
                              1),
                       "%"});
  return out;
}

void print_summary(bool correct, std::size_t attempted, std::size_t failed,
                   const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(std::max<std::size_t>(attempted, 1)) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ",";
    line += quoted(metrics[i].name) + ":{\"value\":" + num(metrics[i].value) +
            ",\"unit\":" + quoted(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

int main_impl(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const double load_start = loadavg_1m();
  set_log_level(LogLevel::kError);
  obs::tracer().set_enabled(false);
  auto wl = make_workload(args.workload, args.smoke);

  RunResult result;
  try {
    result = run(args, *wl);
  } catch (const BadResultAccess& e) {
    std::fprintf(stderr, "rockfs_bench: operation failed: %s\n", e.what());
    print_summary(false, 1, 1, {});
    return 1;
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "rockfs_bench: correctness gate: %s\n", e.what());
    print_summary(false, 1, 0, {});
    return 1;
  }

  std::printf("{\"workload\":%s,\"mode\":%s,\"seconds\":%s,\"rounds\":%zu,\"ops\":%zu,"
              "\"latency_samples\":%zu,\"reference_pass_ms\":%s,\"host\":%s}\n",
              quoted(args.workload).c_str(), quoted(args.trace ? "trace" : "plain").c_str(),
              num(args.seconds).c_str(), kRounds, result.attempted, result.latency_samples,
              num(result.reference_pass_ms).c_str(), host_fingerprint(args, load_start).c_str());
  for (const auto* group : {&result.e2e, &result.layer}) {
    for (const auto& m : *group) {
      std::printf("{\"workload\":%s,\"metric\":%s,\"value\":%s,\"unit\":%s}\n",
                  quoted(args.workload).c_str(), quoted(m.name).c_str(), num(m.value).c_str(),
                  quoted(m.unit).c_str());
    }
  }
  print_summary(true, result.attempted, 0, args.trace ? result.layer : result.e2e);
  return 0;
}

}  // namespace
}  // namespace rockfs::e2e

int main(int argc, char** argv) { return rockfs::e2e::main_impl(argc, argv); }
