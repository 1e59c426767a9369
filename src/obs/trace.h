// Sim-clock-aware span tracing with a deterministic ring-buffer sink.
//
// Spans nest lexically: Tracer::span() parents the new span under the
// innermost still-open span on the same tracer (the stack), and records the
// simulated start time from the bound SimClock. Components that compute
// virtual delays without advancing the clock set the span's duration
// explicitly (set_duration); spans finish (and enter the ring buffer) on
// destruction or an explicit finish().
//
// Exclusive-time accounting — how per-layer breakdowns reconcile with the
// headline latency in a simulator where child "latencies" overlap:
//   * a parent that serially composes child delays calls
//     charge_child(child_delay) per child; its exclusive time is then
//     duration - charged;
//   * a parent that fans children out in (simulated) parallel opens the
//     group with SpanOptions{.fanout = true}; direct children of a fanout
//     span are marked SpanKind::kParallel and reconcile_exclusive_us()
//     skips their subtrees, counting only the group span's own duration
//     (which the owner sets to the composed quorum/max delay).
// With that discipline, reconcile_exclusive_us(events, root) ==
// root.duration_us exactly; the fig5 bench asserts this within 1%.
//
// Concurrency: the tracer's single open-span stack is meaningless when a
// fan-out executes branches on worker threads, so pooled branches trace into
// per-task buffers instead. The coordinator mints one TaskTrace per branch
// (Tracer::make_task), the worker binds it thread-locally for the branch's
// lifetime (TaskBinding) — every tracer().span() call on that thread,
// including ones deep inside CloudProvider, lands in the buffer with local
// ids — and after the join the coordinator splices the buffers back
// (Tracer::splice) in branch-index order, renumbering ids and parenting each
// buffer's root spans under the innermost open coordinator span. Because the
// splice order is the branch index, not completion order, the exported dump
// is byte-identical whether branches ran inline or on N threads. The tracer
// and every buffer keep their open spans in the same detail::SpanStack, so
// opening, finding and retiring a span is one code path for both.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sim/clock.h"

namespace rockfs::obs {

enum class SpanKind : std::uint8_t {
  kSerial = 0,    // contributes to the parent's timeline serially
  kParallel = 1,  // one branch of a fanout group; overlaps its siblings
};

/// One finished span, as stored in the ring buffer.
struct TraceEvent {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string label;
  SpanKind kind = SpanKind::kSerial;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint64_t charged_us = 0;  // child delays the owner serially composed
  ErrorCode outcome = ErrorCode::kOk;
  std::uint32_t retries = 0;
  std::uint64_t bytes = 0;
};

struct SpanOptions {
  bool fanout = false;  // direct children overlap (quorum / pipeline groups)
};

class Tracer;
class TaskTrace;

namespace detail {
/// The open spans of one recorder, innermost at the back. The Tracer keeps
/// one under its mutex; each TaskTrace keeps one for its branch.
class SpanStack {
 public:
  struct Open {
    TraceEvent event;  // event.id is the span's id
    bool fanout = false;
    bool finished = false;
  };

  /// Opens span `id` under the innermost open span, starting now on `clock`
  /// (at 0 when unbound).
  void open(std::uint64_t id, std::string name, SpanOptions opts,
            const sim::SimClockPtr& clock);
  /// Parents `event` under the innermost open span: kParallel when that span
  /// is a fanout group. Leaves a root as is when nothing is open.
  void adopt(TraceEvent& event) const;
  /// The open (possibly finished, not yet retired) span `id`, else null.
  Open* find(std::uint64_t id);
  /// Marks span `id` finished, then hands the contiguous finished suffix to
  /// `retire`, innermost first. Spans normally close LIFO; one finished out
  /// of order waits until every span opened after it has finished too.
  template <typename Retire>
  void finish(std::uint64_t id, Retire&& retire) {
    Open* span = find(id);
    if (!span || span->finished) return;
    span->finished = true;
    while (!open_.empty() && open_.back().finished) {
      retire(std::move(open_.back().event));
      open_.pop_back();
    }
  }
  void clear() { open_.clear(); }

 private:
  std::vector<Open> open_;
};
}  // namespace detail

/// Move-only RAII handle. A default-constructed (or disabled-tracer) span is
/// inert: every setter is a no-op and nothing is recorded.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void set_duration(std::uint64_t us);
  /// Add a serially-composed child delay to this span's charged total.
  void charge_child(std::uint64_t us);
  void set_outcome(ErrorCode code);
  void set_retries(std::uint32_t n);
  void set_bytes(std::uint64_t n);
  void set_label(std::string label);
  /// Record the span into the ring buffer. Idempotent.
  void finish();

  bool active() const { return tracer_ != nullptr || task_ != nullptr; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Tracer;
  friend class TaskTrace;
  Span(Tracer* tracer, std::uint64_t id) : tracer_(tracer), id_(id) {}
  Span(TaskTrace* task, std::uint64_t id) : task_(task), id_(id) {}
  /// Applies `fn` to this span's event while it is open; the one step every
  /// setter takes. Holds the tracer's mutex for tracer-owned spans.
  template <typename Fn>
  void edit(Fn&& fn);

  Tracer* tracer_ = nullptr;
  TaskTrace* task_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Per-branch span buffer for pooled fan-outs. Thread-confined: the owning
/// worker is the only thread that touches it between TaskBinding and the
/// coordinator's post-join Tracer::splice, so it needs no lock. Spans get
/// local ids starting at 1 (0 = "root of this buffer"); splice renumbers
/// them into the tracer's global sequence. Must not move while bound.
class TaskTrace {
 public:
  TaskTrace() = default;
  TaskTrace(TaskTrace&&) = default;
  TaskTrace& operator=(TaskTrace&&) = default;

  /// Open a span in this buffer; parent = innermost open span here.
  Span span(std::string name, SpanOptions opts = {});
  bool enabled() const { return enabled_; }

 private:
  friend class Tracer;
  friend class Span;

  bool enabled_ = false;
  sim::SimClockPtr clock_;
  std::uint64_t next_local_ = 1;
  detail::SpanStack stack_;
  std::vector<TraceEvent> done_;  // retired, in retirement order
};

/// RAII thread-local bind: while alive, tracer().span() calls on this thread
/// route into `task`. Nest-safe (restores the previous binding).
class TaskBinding {
 public:
  explicit TaskBinding(TaskTrace* task);
  ~TaskBinding();
  TaskBinding(const TaskBinding&) = delete;
  TaskBinding& operator=(const TaskBinding&) = delete;

 private:
  TaskTrace* prev_;
};

/// Deterministic trace sink: fixed-capacity ring buffer keyed by simulated
/// time. Everything recorded derives from the SimClock and the workload, so
/// the JSON export is byte-identical across runs with the same seed.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Spans read start times from this clock; unbound spans start at 0.
  void bind_clock(sim::SimClockPtr clock);
  void set_enabled(bool enabled);
  bool enabled() const;
  /// Resizes the ring buffer and clears recorded events.
  void set_capacity(std::size_t capacity);

  /// Open a span. Parent = innermost open span on this tracer. When the
  /// calling thread has a TaskBinding, routes into that TaskTrace instead.
  Span span(std::string name, SpanOptions opts = {});

  /// Mint an empty per-branch buffer carrying this tracer's enabled flag and
  /// clock. Mint all buffers before launching the fan-out.
  TaskTrace make_task() const;

  /// Append every buffer's finished spans to the ring in buffer order,
  /// renumbering local ids into the global sequence and parenting each
  /// buffer's roots under the innermost open span (kParallel when that span
  /// is a fanout group). Buffers are drained and reusable afterwards.
  void splice(std::vector<TaskTrace>& tasks);

  /// Finished spans currently retained, ordered by id (i.e. open order).
  std::vector<TraceEvent> events() const;
  std::uint64_t finished_count() const;
  std::uint64_t dropped_count() const;

  /// Clears events and the open-span stack; keeps clock, capacity, enabled.
  void reset();

  /// {"finished":N,"dropped":D,"events":[...]}; deterministic field order.
  std::string to_json() const;

 private:
  friend class Span;

  void retire(TraceEvent&& event);  // mu_ held

  mutable std::mutex mu_;
  sim::SimClockPtr clock_;
  bool enabled_ = true;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t finished_ = 0;
  detail::SpanStack stack_;       // guarded by mu_
  std::vector<TraceEvent> ring_;  // ring_[finished_ % capacity_]
};

/// Process-global tracer used by the instrumented components.
Tracer& tracer();

/// Sum of exclusive durations (duration - charged) over the serial subtree
/// of `root_id`, skipping subtrees rooted at kParallel spans (their cost is
/// already inside the fanout group's composed duration). Reconciles with the
/// root span's duration when owners follow the charging discipline above.
std::uint64_t reconcile_exclusive_us(const std::vector<TraceEvent>& events,
                                     std::uint64_t root_id);

}  // namespace rockfs::obs
