// Deterministic WAN link model: latency = rtt/2 + bytes/bandwidth (+ jitter).
// Calibrated in DESIGN.md §5 against the paper's London-client / Ireland-S3 /
// Belgium-GCE testbed so the reproduced figures land in the right decade.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "sim/clock.h"

namespace rockfs::sim {

/// Static description of one client<->provider WAN path.
struct LinkProfile {
  std::string name;
  std::int64_t rtt_us = 25'000;           // round-trip time
  double up_bytes_per_sec = 2.5e6;        // client -> provider
  double down_bytes_per_sec = 6.0e6;      // provider -> client
  double jitter_frac = 0.03;              // relative stddev applied to each delay
  std::int64_t request_overhead_us = 3'000;  // per-request server-side cost

  /// Paper-like profiles (DESIGN.md §5 calibration).
  static LinkProfile s3_like(const std::string& name);
  static LinkProfile coordination_like(const std::string& name);
  static LinkProfile local_like(const std::string& name);
};

/// Computes per-operation delays and advances the shared virtual clock.
class NetworkModel {
 public:
  NetworkModel(SimClockPtr clock, LinkProfile profile, std::uint64_t jitter_seed);

  /// Delay of an upload carrying `bytes` of payload (includes one rtt).
  SimClock::Micros upload_delay_us(std::size_t bytes);

  /// Delay of a download returning `bytes` of payload (includes one rtt).
  SimClock::Micros download_delay_us(std::size_t bytes);

  /// Delay of a small metadata round trip.
  SimClock::Micros rpc_delay_us(std::size_t request_bytes, std::size_t response_bytes);

  /// Advances the clock as if the given round trip just happened, returns the delay.
  SimClock::Micros charge_rpc(std::size_t request_bytes, std::size_t response_bytes);

  const LinkProfile& profile() const noexcept { return profile_; }
  const SimClockPtr& clock() const noexcept { return clock_; }

 private:
  SimClock::Micros jitter(SimClock::Micros base);

  SimClockPtr clock_;
  LinkProfile profile_;
  Rng rng_;
};

/// Upload/download byte accounting per provider, for the §6.4 traffic models.
class TrafficMeter {
 public:
  void add_upload(std::size_t bytes) noexcept { uploaded_ += bytes; }
  void add_download(std::size_t bytes) noexcept { downloaded_ += bytes; }
  std::uint64_t uploaded_bytes() const noexcept { return uploaded_; }
  std::uint64_t downloaded_bytes() const noexcept { return downloaded_; }
  void reset() noexcept { uploaded_ = downloaded_ = 0; }

 private:
  std::uint64_t uploaded_ = 0;
  std::uint64_t downloaded_ = 0;
};

}  // namespace rockfs::sim
