// Per-layer attribution of one op's virtual time, and counter snapshots.
//
// Each span's duration is split between its own layer and the children on
// the op's virtual path, so the rows of one op sum to its latency exactly:
//   * serial children are on the path when they all fit inside the span (an
//     owner may advance the clock for a child without charging it, as the
//     session-key registration inside scfs.close does). When they overflow
//     the span, only the owner's charged total of them is: the rest ran off
//     the path (fire-and-forget journal clears, reads the owner composed in
//     parallel without a fan-out group). A span that charges nothing keeps
//     its whole duration, as recovery.recover_file does today;
//   * at a fan-out group, a plain exclusive-time sum would charge the whole
//     group to the group's layer (the upload pipeline of a close would land
//     on scfs). Here the walk descends into the critical branch instead: the
//     kParallel child with the largest duration that fits inside the group.
//     The group's remainder (quorum wait, uplink contention) is its layer's
//     wait.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "obs/metrics.h"

namespace rockfs::e2e {

const std::vector<std::string> kLayers = {"scfs", "log", "depsky", "cloud", "coord",
                                          "recovery"};

namespace {

using Children = std::unordered_map<std::uint64_t, std::vector<const obs::TraceEvent*>>;

std::string layer_of(const std::string& span_name) {
  const std::string layer = span_name.substr(0, span_name.find('.'));
  if (std::find(kLayers.begin(), kLayers.end(), layer) == kLayers.end()) {
    throw GateFailure("span '" + span_name + "' belongs to no known layer");
  }
  return layer;
}

/// Attributes exactly `e.duration_us` of virtual time over `e`'s subtree.
void attribute(const obs::TraceEvent& e, const Children& children, LayerTimes& into) {
  const auto duration = static_cast<std::int64_t>(e.duration_us);
  std::vector<const obs::TraceEvent*> serial, parallel;
  std::int64_t serial_sum = 0;
  if (const auto it = children.find(e.id); it != children.end()) {
    for (const obs::TraceEvent* c : it->second) {
      if (c->kind == obs::SpanKind::kSerial) {
        serial.push_back(c);
        serial_sum += static_cast<std::int64_t>(c->duration_us);
      } else {
        parallel.push_back(c);
      }
    }
  }
  const std::int64_t budget =
      serial_sum <= duration ? serial_sum : static_cast<std::int64_t>(e.charged_us);
  std::int64_t on_path = 0;
  for (const obs::TraceEvent* c : serial) {
    const auto d = static_cast<std::int64_t>(c->duration_us);
    if (on_path + d > budget) continue;
    on_path += d;
    attribute(*c, children, into);
  }
  const std::int64_t own = duration - on_path;
  const std::string layer = layer_of(e.name);
  if (own < 0) {
    throw GateFailure("span '" + e.name + "' charges " + std::to_string(e.charged_us) +
                      " us to children but lasts " + std::to_string(duration) + " us");
  }
  if (parallel.empty()) {
    into.busy_us[layer] += own;
    return;
  }
  const obs::TraceEvent* critical = nullptr;
  for (const obs::TraceEvent* c : parallel) {
    if (static_cast<std::int64_t>(c->duration_us) <= own &&
        (critical == nullptr || c->duration_us > critical->duration_us)) {
      critical = c;
    }
  }
  std::int64_t branch = 0;
  if (critical != nullptr) {
    branch = static_cast<std::int64_t>(critical->duration_us);
    attribute(*critical, children, into);
  }
  into.wait_us[layer] += own - branch;
}

void dump(const std::vector<obs::TraceEvent>& events) {
  for (const auto& e : events) {
    std::fprintf(stderr, "  span %llu parent %llu %-24s %s duration %llu charged %llu\n",
                 static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent), e.name.c_str(),
                 e.kind == obs::SpanKind::kParallel ? "parallel" : "serial  ",
                 static_cast<unsigned long long>(e.duration_us),
                 static_cast<unsigned long long>(e.charged_us));
  }
}

std::int64_t total(const LayerTimes& t) {
  std::int64_t sum = t.untraced_us;
  for (const auto& [layer, us] : t.busy_us) sum += us;
  for (const auto& [layer, us] : t.wait_us) sum += us;
  return sum;
}

}  // namespace

void attribute_op(const std::vector<obs::TraceEvent>& events, std::int64_t latency_us,
                  LayerTimes& into) {
  Children children;
  std::vector<const obs::TraceEvent*> roots;
  for (const auto& e : events) {
    if (e.parent == 0) {
      roots.push_back(&e);
    } else {
      children[e.parent].push_back(&e);
    }
  }
  LayerTimes op;
  std::int64_t roots_us = 0;
  try {
    for (const obs::TraceEvent* root : roots) {
      roots_us += static_cast<std::int64_t>(root->duration_us);
      attribute(*root, children, op);
    }
  } catch (const GateFailure&) {
    dump(events);
    throw;
  }
  op.untraced_us = latency_us - roots_us;
  const double tolerance = 0.001 * static_cast<double>(std::max<std::int64_t>(latency_us, 1));
  if (static_cast<double>(op.untraced_us) < -tolerance ||
      std::abs(static_cast<double>(total(op) - latency_us)) > tolerance) {
    dump(events);
    throw GateFailure("layer rows do not sum to the op latency: latency " +
                      std::to_string(latency_us) + " us, root spans " +
                      std::to_string(roots_us) + " us, rows " + std::to_string(total(op)) +
                      " us");
  }
  for (const auto& [layer, us] : op.busy_us) into.busy_us[layer] += us;
  for (const auto& [layer, us] : op.wait_us) into.wait_us[layer] += us;
  into.untraced_us += op.untraced_us;
  into.ops += 1;
}

std::map<std::string, std::uint64_t> counter_snapshot() {
  // {"counters":{"a":1,"b{x}":2},"gauges":...}: keys hold no quotes.
  const std::string json = obs::metrics().to_json();
  std::map<std::string, std::uint64_t> out;
  const std::string open = "\"counters\":{";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return out;
  pos += open.size();
  while (pos < json.size() && json[pos] == '"') {
    const std::size_t key_end = json.find('"', pos + 1);
    const std::string key = json.substr(pos + 1, key_end - pos - 1);
    pos = key_end + 2;  // past '":'
    char* end = nullptr;
    out[key] = std::strtoull(json.c_str() + pos, &end, 10);
    pos = static_cast<std::size_t>(end - json.c_str());
    if (json[pos] == ',') ++pos;
  }
  return out;
}

std::uint64_t counter_sum(const std::map<std::string, std::uint64_t>& counters,
                          const std::string& prefix, const std::string& infix) {
  std::uint64_t sum = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    if (infix.empty() || it->first.find(infix) != std::string::npos) sum += it->second;
  }
  return sum;
}

}  // namespace rockfs::e2e
