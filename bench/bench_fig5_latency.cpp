// Figure 5 — Latency of using RockFS with and without the log.
//
// Paper workload (§6.1): create a file, then update it with an extra 30% of
// content; the latency is the virtual time from invoking close() on the
// update until the coordination service finishes recording the operation.
// Sizes 1..50 MB, SCFS (no log) vs RockFS (log), blocking and non-blocking
// sync. Paper result: logging costs ~20% on average.
#include <cstdio>

#include "bench/bench_util.h"

namespace rockfs::bench {
namespace {

struct Cell {
  double scfs_s = 0;
  double rockfs_s = 0;
};

// Worst relative disagreement seen between the measured close() delay and
// the trace's summed exclusive span durations (reconcile_exclusive_us).
double g_max_reconcile_err = 0;

void check_reconciliation(sim::SimClock::Micros measured) {
  const auto events = obs::tracer().events();
  std::uint64_t root_id = 0;
  for (const auto& e : events) {
    if (e.name == "scfs.close" && e.id > root_id) root_id = e.id;
  }
  if (root_id == 0 || measured <= 0) return;
  const std::uint64_t exclusive = obs::reconcile_exclusive_us(events, root_id);
  const double err = std::abs(static_cast<double>(exclusive) -
                              static_cast<double>(measured)) /
                     static_cast<double>(measured);
  g_max_reconcile_err = std::max(g_max_reconcile_err, err);
}

Cell run_cell(std::size_t size_mb, scfs::SyncMode mode, const BenchArgs& args) {
  Cell cell;
  for (const bool logging : {false, true}) {
    std::vector<double> samples;
    for (int rep = 0; rep < args.reps; ++rep) {
      auto dep = make_deployment(logging, mode,
                                 2018 + static_cast<std::uint64_t>(rep) * 7919);
      auto& agent = dep.add_user("alice");
      Rng rng(1000 + static_cast<std::uint64_t>(rep));
      create_file(agent, "/bench.dat", size_mb << 20, rng);
      agent.drain_background();

      // Measured operation: the +30% update.
      auto fd = agent.open("/bench.dat");
      fd.expect("open");
      agent.append(*fd, rng.next_bytes((size_mb << 20) * 3 / 10)).expect("append");
      auto closed = agent.close_timed(*fd);
      closed.value.expect("close");
      check_reconciliation(closed.delay);
      samples.push_back(static_cast<double>(closed.delay) / 1e6);
    }
    (logging ? cell.rockfs_s : cell.scfs_s) = mean(samples);
  }
  return cell;
}

/// Returns false when the trace failed to reconcile with a close latency.
bool run(const BenchArgs& args) {
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{1, 5, 10}
                 : std::vector<std::size_t>{1, 5, 10, 20, 30, 40, 50};

  std::printf("Figure 5: latency of a +30%% file update, with and without the log\n");
  std::printf("(paper: RockFS ~20%% above SCFS on average, both growing ~linearly)\n");

  for (const scfs::SyncMode mode :
       {scfs::SyncMode::kNonBlocking, scfs::SyncMode::kBlocking}) {
    const char* mode_name =
        mode == scfs::SyncMode::kNonBlocking ? "non-blocking" : "blocking";
    print_header((std::string("Fig. 5 — ") + mode_name).c_str(),
                 {"size (MB)", "SCFS (s)", "RockFS (s)", "overhead"});
    double overhead_sum = 0;
    for (const std::size_t mb : sizes) {
      const Cell cell = run_cell(mb, mode, args);
      const double overhead = (cell.rockfs_s / cell.scfs_s - 1.0) * 100.0;
      overhead_sum += overhead;
      std::printf("%14zu%14.2f%14.2f%13.1f%%\n", mb, cell.scfs_s, cell.rockfs_s,
                  overhead);
    }
    std::printf("%-42s avg overhead: %5.1f%%  (paper: ~20%%)\n", mode_name,
                overhead_sum / static_cast<double>(sizes.size()));
  }
  std::printf("trace reconciliation: max |exclusive-sum - close latency| = %.4f%% "
              "(must stay <1%%)\n",
              g_max_reconcile_err * 100.0);
  return g_max_reconcile_err < 0.01;
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  const auto args = rockfs::bench::BenchArgs::parse(argc, argv);
  const bool reconciled = rockfs::bench::run(args);
  rockfs::bench::dump_metrics_json(args);
  return reconciled ? 0 : 1;
}
