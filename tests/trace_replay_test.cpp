// Golden-trace determinism: the whole observability pipeline (metrics
// registry + span tracer) is driven purely by simulated state, so replaying
// the same seeded workload must produce byte-identical JSON dumps, while a
// different seed must not. Also checks the exclusive-time reconciliation
// contract on a real close() measured through the full stack, and on every
// DepSky operation, whose quorum branches are spliced from per-branch buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rockfs/deployment.h"

namespace rockfs {
namespace {

struct TraceDump {
  std::string trace_json;
  std::string metrics_json;
};

// Runs a fixed workload — two files, chaos on three clouds, updates, reads,
// one cold read, one recovery audit — against a fresh deployment and returns
// the global observability dumps. Resets the global registry/tracer first so
// dumps cover exactly this run.
TraceDump run_workload(std::uint64_t seed) {
  obs::metrics().reset();
  obs::tracer().reset();
  obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);

  core::DeploymentOptions opts;
  opts.seed = seed;
  core::Deployment dep(opts);
  auto& agent = dep.add_user("alice");
  Rng rng(seed * 31 + 7);

  // Chaos on a minority of clouds: retries, breaker trips and forced probes
  // all leave fingerprints in the metrics and the trace.
  dep.clouds()[1]->faults().set_transient_error_prob(0.3);
  dep.clouds()[2]->faults().set_tail_latency(0.5, 6.0);
  dep.clouds()[3]->faults().set_timeout_prob(0.2);

  agent.write_file("/a.dat", rng.next_bytes(64 << 10)).expect("write a");
  agent.write_file("/b.dat", rng.next_bytes(16 << 10)).expect("write b");
  for (int i = 0; i < 3; ++i) {
    auto fd = agent.open("/a.dat");
    fd.expect("open");
    agent.append(*fd, rng.next_bytes(4 << 10)).expect("append");
    agent.close(*fd).expect("close");
    agent.read_file("/b.dat").expect("read");
  }
  agent.drain_background();
  // The reads above all hit the client cache; a cold re-read takes the
  // DepSky read path (metadata and share fan-outs).
  agent.drop_cache();
  agent.read_file("/a.dat").expect("cold read");

  auto recovery = dep.make_recovery_service("alice");
  recovery.audit_log().expect("audit");

  return {obs::tracer().to_json(), obs::metrics().to_json()};
}

TEST(TraceReplay, SameSeedIsByteIdentical) {
  const TraceDump a = run_workload(2018);
  const TraceDump b = run_workload(2018);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceReplay, DifferentSeedsDiverge) {
  const TraceDump a = run_workload(2018);
  const TraceDump b = run_workload(4242);
  // Different fault draws and payloads must leave different fingerprints.
  EXPECT_NE(a.trace_json, b.trace_json);
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

TEST(TraceReplay, DumpContainsTheExpectedSpanVocabulary) {
  const TraceDump dump = run_workload(2018);
  for (const char* name :
       {"\"scfs.close\"", "\"scfs.upload_pipeline\"", "\"depsky.write\"", "\"depsky.read\"",
        "\"depsky.put_quorum\"", "\"cloud.put\"", "\"log.append\"", "\"coord.op\"",
        "\"recovery.audit\""}) {
    EXPECT_NE(dump.trace_json.find(name), std::string::npos) << name;
  }
  for (const char* key :
       {"\"scfs.close.count\"", "\"cloud.put.count{cloud-0}\"", "\"depsky.retries\"",
        "\"log.append.count\"", "\"recovery.audits\""}) {
    EXPECT_NE(dump.metrics_json.find(key), std::string::npos) << key;
  }
}

// Each DepSky write and read fans its per-cloud branches out as one quorum
// round whose branch spans are traced into TaskTrace buffers and spliced back.
// A successful operation reconciles with its own duration only when the
// spliced branch roots are parallel children of the round and every id is
// unique (the scfs.close check above them cannot see this: the upload
// pipeline is itself a fan-out, so reconciliation never descends to DepSky).
TEST(TraceReplay, DepSkyOpsReconcileWithTheirOwnDuration) {
  run_workload(2018);
  ASSERT_EQ(obs::tracer().dropped_count(), 0u);
  const auto events = obs::tracer().events();
  std::set<std::uint64_t> ids;
  for (const auto& e : events) EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
  std::size_t writes = 0;
  std::size_t reads = 0;
  for (const auto& e : events) {
    if (e.name != "depsky.write" && e.name != "depsky.read") continue;
    if (e.outcome != ErrorCode::kOk) continue;
    EXPECT_EQ(obs::reconcile_exclusive_us(events, e.id), e.duration_us)
        << e.name << " id " << e.id;
    ++(e.name == "depsky.write" ? writes : reads);
  }
  EXPECT_GT(writes, 0u);
  EXPECT_GT(reads, 0u);
}

// The fig5 acceptance criterion, as a test: for a blocking-mode close, the
// sum of exclusive span durations under the scfs.close root must equal the
// measured close latency within 1% — with the RockFS log pipeline and
// without it (the plain-SCFS close, whose fence check SCFS runs itself).
TEST(TraceReplay, ExclusiveDurationsReconcileWithCloseLatency) {
  for (const bool logging : {true, false}) {
    SCOPED_TRACE(logging ? "logging on" : "logging off");
    obs::metrics().reset();
    obs::tracer().reset();
    obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);

    core::DeploymentOptions opts;
    opts.seed = 7;
    opts.agent.sync_mode = scfs::SyncMode::kBlocking;
    opts.agent.enable_logging = logging;
    core::Deployment dep(opts);
    auto& agent = dep.add_user("alice");
    Rng rng(99);
    agent.write_file("/f.dat", rng.next_bytes(1 << 20)).expect("write");

    auto fd = agent.open("/f.dat");
    fd.expect("open");
    agent.append(*fd, rng.next_bytes(300 << 10)).expect("append");
    auto closed = agent.close_timed(*fd);
    closed.value.expect("close");
    ASSERT_GT(closed.delay, 0);

    const auto events = obs::tracer().events();
    std::uint64_t root_id = 0;
    for (const auto& e : events) {
      if (e.name == "scfs.close" && e.id > root_id) root_id = e.id;
    }
    ASSERT_NE(root_id, 0u);
    const std::uint64_t exclusive = obs::reconcile_exclusive_us(events, root_id);
    const double measured = static_cast<double>(closed.delay);
    EXPECT_NEAR(static_cast<double>(exclusive), measured, measured * 0.01);
  }
}

}  // namespace
}  // namespace rockfs
