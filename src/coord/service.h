// Byzantine fault-tolerant coordination service: a DepSpace-style tuple
// space replicated over 3f+1 Replica state machines (paper §5.3). The
// embedded quorum client sends every operation to all replicas, waits for
// 2f+1 matching answers (majority voting masks up to f liars), and reports
// the virtual-time delay at which the quorum completed. Like the providers,
// the service never advances the clock itself.
#pragma once

#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "coord/replica.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/timed.h"

namespace rockfs::coord {

class CoordinationService {
 public:
  /// Builds 3f+1 replicas with coordination-like WAN profiles.
  CoordinationService(sim::SimClockPtr clock, std::size_t f, std::uint64_t seed);

  std::size_t f() const noexcept { return f_; }
  std::size_t replica_count() const noexcept { return replicas_.size(); }
  std::size_t quorum() const noexcept { return 2 * f_ + 1; }

  // ---- tuple-space operations (delay = time for a 2f+1 quorum) ----

  sim::Timed<Status> out(const Tuple& tuple);
  sim::Timed<Result<std::optional<Tuple>>> rdp(const Template& pattern);
  sim::Timed<Result<std::optional<Tuple>>> inp(const Template& pattern);
  sim::Timed<Result<std::vector<Tuple>>> rdall(const Template& pattern);
  /// rdall's voted answer undecoded (encode_tuples): the winning replica's
  /// shared buffer, which that replica may hand out again (Replica::rdall_shared).
  sim::Timed<Result<std::shared_ptr<const Bytes>>> rdall_encoded(const Template& pattern);
  sim::Timed<Result<bool>> cas(const Template& pattern, const Tuple& tuple);
  sim::Timed<Result<std::size_t>> replace(const Template& pattern, const Tuple& tuple);
  /// Conditional replace (see Replica::swap): inserts `tuple` only when
  /// `pattern` matched something; 0 removed means the store was untouched.
  sim::Timed<Result<std::size_t>> swap(const Template& pattern, const Tuple& tuple);
  sim::Timed<Result<std::size_t>> count(const Template& pattern);

  // ---- fault injection & administration ----

  Replica& replica(std::size_t i) { return *replicas_.at(i); }
  /// Per-replica time-varying fault schedule, consulted on every operation
  /// (outages and transient errors drop the replica's vote; tail latency
  /// slows its reply). The down flag below is a wrapper over its permanent
  /// entry.
  sim::FaultSchedule& replica_faults(std::size_t i) { return *faults_.at(i); }
  void set_replica_down(std::size_t i, bool down) { faults_.at(i)->set_down(down); }

  /// Durable checkpoint of one replica (the [11] enhancement).
  Bytes checkpoint_replica(std::size_t i) const { return replicas_.at(i)->checkpoint(); }
  /// Replaces a replica's state from a checkpoint (crash recovery / migration).
  Status restore_replica(std::size_t i, BytesView checkpoint);

 private:
  /// Runs `op` on every live replica, votes, and returns the winning encoded
  /// answer (>= 2f+1 votes with identical bytes) with the quorum completion
  /// delay. `op` returns the encoding as Bytes or as a shared buffer.
  template <typename Op, typename Answer = std::invoke_result_t<Op&, Replica&>>
  sim::Timed<Result<Answer>> execute(const char* name, Op&& op);

  sim::SimClockPtr clock_;
  std::size_t f_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<sim::NetworkModel>> nets_;
  std::vector<sim::FaultSchedulePtr> faults_;
};

}  // namespace rockfs::coord
