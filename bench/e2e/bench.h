// rockfs_bench: one end-to-end workload per invocation, driven through the
// public Deployment / RockFsAgent / RecoveryService API with library
// defaults (inline execution, non-blocking sync, CA, logging, journal,
// fencing and cache on, write-back off).
//
// A run is kRounds rounds. Each round builds a fresh deployment and its
// workload-specific prefill (timed: one set-up sample), then executes its
// share of the measured operations. Every operation is followed by a drain
// of the background pipeline, so each op's virtual latency is complete
// (close-to-recorded, paper Fig. 5). The op stream is a pure function of
// (workload, seed, seconds), so a plain run and a --trace run of the same
// seed replay identical operations and report identical virtual metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "rockfs/deployment.h"

namespace rockfs::e2e {

constexpr std::size_t kRounds = 3;

/// A correctness gate tripped: the run is wrong, not slow.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Benchmark-side model of the namespace: path -> expected bytes. Every
/// write goes through it, and every read or recovery is checked against it.
class Shadow {
 public:
  void set(const std::string& path, Bytes content);
  /// Overwrites [offset, offset + data.size()) of an existing file.
  void overwrite(const std::string& path, std::size_t offset, BytesView data);
  const Bytes& at(const std::string& path) const;
  /// Throws GateFailure unless `actual` equals the model's bytes for `path`.
  void check(const std::string& path, const Bytes& actual, const char* what) const;
  const std::map<std::string, Bytes>& files() const { return files_; }
  std::uint64_t live_bytes() const;

 private:
  std::map<std::string, Bytes> files_;
};

/// What one measured operation reports back to the harness.
struct OpResult {
  /// Virtual latency of the workload's headline operation (close, read or
  /// file recovery), or -1 when this op is not a headline op.
  std::int64_t headline_us = -1;
  /// Log entries re-executed, when the op recovered a file.
  std::optional<std::size_t> entries_applied;
};

/// One round's state. The deployment is heap-held because `agent` points
/// into it.
struct Round {
  std::unique_ptr<core::Deployment> dep;
  core::RockFsAgent* agent = nullptr;
  Shadow shadow;
  std::uint64_t user_bytes_written = 0;  // through the agent, attacks included
  std::vector<std::string> written;      // paths the measured phase wrote
};

/// Workload interface: set-up (timed as set-up) and the measured ops.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Bytes per file (sizes the host probes' buffers).
  virtual std::size_t file_size() const = 0;
  /// Measured ops per second of --seconds: the op budget is this times
  /// --seconds, split evenly over the rounds.
  virtual double ops_per_second_budget() const = 0;
  virtual core::DeploymentOptions deployment_options() const;
  virtual void setup(Round& round, std::size_t ops, Rng& rng) = 0;
  virtual OpResult op(Round& round, std::size_t index, Rng& rng) = 0;
};

/// Re-reads every path in `round.written` and checks it against the shadow
/// model.
void verify_written(Round& round);

/// `smoke` shrinks every working set 8x (keeping working set vs cache
/// ratios) so the smoke test stays within seconds.
std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke);
const std::vector<std::string>& workload_names();

// ---- per-layer attribution (layers.cpp) ----

/// Virtual time of traced ops by layer (the span-name prefix: scfs, log,
/// depsky, cloud, coord, recovery).
struct LayerTimes {
  std::map<std::string, std::int64_t> busy_us;
  std::map<std::string, std::int64_t> wait_us;  // fan-out remainders
  std::int64_t untraced_us = 0;                 // op latency - root spans
  std::size_t ops = 0;
};

extern const std::vector<std::string> kLayers;

/// Splits one op's spans by layer and adds them to `into`. Throws
/// GateFailure when the rows do not sum to `latency_us` within 0.1%.
void attribute_op(const std::vector<obs::TraceEvent>& events, std::int64_t latency_us,
                  LayerTimes& into);

/// Every counter in the process registry (parsed from its JSON export).
std::map<std::string, std::uint64_t> counter_snapshot();

/// Sum of the counters whose key starts with `prefix` and, when given,
/// contains `infix`.
std::uint64_t counter_sum(const std::map<std::string, std::uint64_t>& counters,
                          const std::string& prefix, const std::string& infix = "");

// ---- host probes (probes.cpp) ----

/// One pass of the host-speed reference: 200k random reads over a 4 MiB
/// table, code of the benchmark's own that no library change can speed up.
/// On shared hosts op timings drift by up to half with memory-system
/// contention from neighbours; this probe drifts with them (correlation 0.8
/// over 10-op windows of update-large on the 4-core reference host).
double speed_reference_seconds();

/// Times direct calls into the substrate on buffers of `file_size` bytes.
/// Returns metric name -> value (units are fixed per name, see README).
std::map<std::string, double> run_host_probes(std::size_t file_size);

}  // namespace rockfs::e2e
