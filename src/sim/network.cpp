#include "sim/network.h"

#include <algorithm>
#include <cmath>

namespace rockfs::sim {

LinkProfile LinkProfile::s3_like(const std::string& name) {
  LinkProfile p;
  p.name = name;
  p.rtt_us = 24'000;               // London -> Ireland
  p.up_bytes_per_sec = 2.2e6;      // ~18 Mbit/s effective per-bucket uplink
  p.down_bytes_per_sec = 7.5e6;    // ~60 Mbit/s downlink
  p.jitter_frac = 0.04;
  // Effective per-request cost of an S3 PUT/GET through the SCFS stack
  // (TLS + HTTP + FUSE + client library), calibrated against Table 2.
  p.request_overhead_us = 90'000;
  return p;
}

LinkProfile LinkProfile::coordination_like(const std::string& name) {
  LinkProfile p;
  p.name = name;
  p.rtt_us = 14'000;               // London -> Belgium
  p.up_bytes_per_sec = 6.0e6;
  p.down_bytes_per_sec = 8.0e6;
  p.jitter_frac = 0.03;
  p.request_overhead_us = 18'000;  // DepSpace replica processing (BFT ordering)
  return p;
}

LinkProfile LinkProfile::local_like(const std::string& name) {
  LinkProfile p;
  p.name = name;
  p.rtt_us = 200;
  p.up_bytes_per_sec = 300e6;
  p.down_bytes_per_sec = 300e6;
  p.jitter_frac = 0.01;
  p.request_overhead_us = 50;
  return p;
}

NetworkModel::NetworkModel(SimClockPtr clock, LinkProfile profile, std::uint64_t jitter_seed)
    : clock_(std::move(clock)), profile_(std::move(profile)), rng_(jitter_seed) {}

SimClock::Micros NetworkModel::jitter(SimClock::Micros base) {
  const double noise = 1.0 + profile_.jitter_frac * rng_.next_gaussian();
  const double scaled = static_cast<double>(base) * std::max(0.5, noise);
  return static_cast<SimClock::Micros>(scaled);
}

SimClock::Micros NetworkModel::upload_delay_us(std::size_t bytes) {
  const auto transfer =
      static_cast<SimClock::Micros>(1e6 * static_cast<double>(bytes) / profile_.up_bytes_per_sec);
  return jitter(profile_.rtt_us + profile_.request_overhead_us + transfer);
}

SimClock::Micros NetworkModel::download_delay_us(std::size_t bytes) {
  const auto transfer = static_cast<SimClock::Micros>(
      1e6 * static_cast<double>(bytes) / profile_.down_bytes_per_sec);
  return jitter(profile_.rtt_us + profile_.request_overhead_us + transfer);
}

SimClock::Micros NetworkModel::rpc_delay_us(std::size_t request_bytes,
                                            std::size_t response_bytes) {
  const auto up = static_cast<SimClock::Micros>(
      1e6 * static_cast<double>(request_bytes) / profile_.up_bytes_per_sec);
  const auto down = static_cast<SimClock::Micros>(
      1e6 * static_cast<double>(response_bytes) / profile_.down_bytes_per_sec);
  return jitter(profile_.rtt_us + profile_.request_overhead_us + up + down);
}

SimClock::Micros NetworkModel::charge_rpc(std::size_t request_bytes,
                                          std::size_t response_bytes) {
  const auto d = rpc_delay_us(request_bytes, response_bytes);
  clock_->advance_us(d);
  return d;
}

}  // namespace rockfs::sim
