#include "obs/trace.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace rockfs::obs {

namespace {
// The TaskTrace bound to this thread, if a fan-out branch is running here.
thread_local TaskTrace* g_current_task = nullptr;
}  // namespace

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), task_(other.task_), id_(other.id_) {
  other.tracer_ = nullptr;
  other.task_ = nullptr;
  other.id_ = 0;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    task_ = other.task_;
    id_ = other.id_;
    other.tracer_ = nullptr;
    other.task_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Span::~Span() { finish(); }

template <typename Fn>
void Span::edit(Fn&& fn) {
  if (task_) {
    if (auto* open = task_->stack_.find(id_)) fn(open->event);
  } else if (tracer_) {
    std::lock_guard<std::mutex> lk(tracer_->mu_);
    if (auto* open = tracer_->stack_.find(id_)) fn(open->event);
  }
}

void Span::set_duration(std::uint64_t us) {
  edit([us](TraceEvent& e) { e.duration_us = us; });
}

void Span::charge_child(std::uint64_t us) {
  edit([us](TraceEvent& e) { e.charged_us += us; });
}

void Span::set_outcome(ErrorCode code) {
  edit([code](TraceEvent& e) { e.outcome = code; });
}

void Span::set_retries(std::uint32_t n) {
  edit([n](TraceEvent& e) { e.retries = n; });
}

void Span::set_bytes(std::uint64_t n) {
  edit([n](TraceEvent& e) { e.bytes = n; });
}

void Span::set_label(std::string label) {
  edit([&label](TraceEvent& e) { e.label = std::move(label); });
}

void Span::finish() {
  if (task_) {
    task_->stack_.finish(id_, [this](TraceEvent&& e) { task_->done_.push_back(std::move(e)); });
  } else if (tracer_) {
    std::lock_guard<std::mutex> lk(tracer_->mu_);
    tracer_->stack_.finish(id_, [this](TraceEvent&& e) { tracer_->retire(std::move(e)); });
  }
  tracer_ = nullptr;
  task_ = nullptr;
  id_ = 0;
}

namespace detail {

void SpanStack::open(std::uint64_t id, std::string name, SpanOptions opts,
                     const sim::SimClockPtr& clock) {
  Open span;
  span.fanout = opts.fanout;
  span.event.id = id;
  span.event.name = std::move(name);
  span.event.start_us = clock ? clock->now_us() : 0;
  adopt(span.event);
  open_.push_back(std::move(span));
}

void SpanStack::adopt(TraceEvent& event) const {
  if (open_.empty()) return;
  event.parent = open_.back().event.id;
  if (open_.back().fanout) event.kind = SpanKind::kParallel;
}

SpanStack::Open* SpanStack::find(std::uint64_t id) {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->event.id == id) return &*it;
  }
  return nullptr;
}

}  // namespace detail

Span TaskTrace::span(std::string name, SpanOptions opts) {
  if (!enabled_) return Span{};
  const std::uint64_t id = next_local_++;
  stack_.open(id, std::move(name), opts, clock_);
  return Span{this, id};
}

TaskBinding::TaskBinding(TaskTrace* task) : prev_(g_current_task) {
  g_current_task = task;
}

TaskBinding::~TaskBinding() { g_current_task = prev_; }

Tracer::Tracer(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  ring_.resize(capacity_);
}

void Tracer::bind_clock(sim::SimClockPtr clock) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_ = std::move(clock);
}

void Tracer::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lk(mu_);
  enabled_ = enabled;
}

bool Tracer::enabled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return enabled_;
}

void Tracer::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = capacity ? capacity : 1;
  ring_.assign(capacity_, TraceEvent{});
  finished_ = 0;
  stack_.clear();
}

Span Tracer::span(std::string name, SpanOptions opts) {
  if (g_current_task) return g_current_task->span(std::move(name), opts);
  std::lock_guard<std::mutex> lk(mu_);
  if (!enabled_) return Span{};
  const std::uint64_t id = next_id_++;
  stack_.open(id, std::move(name), opts, clock_);
  return Span{this, id};
}

TaskTrace Tracer::make_task() const {
  std::lock_guard<std::mutex> lk(mu_);
  TaskTrace task;
  task.enabled_ = enabled_;
  task.clock_ = clock_;
  return task;
}

void Tracer::splice(std::vector<TaskTrace>& tasks) {
  std::lock_guard<std::mutex> lk(mu_);
  for (TaskTrace& task : tasks) {
    // Local id n becomes base + n; local parent 0 marks a buffer root.
    const std::uint64_t base = next_id_ - 1;
    for (TraceEvent& ev : task.done_) {
      ev.id += base;
      if (ev.parent == 0) {
        stack_.adopt(ev);
      } else {
        ev.parent += base;
      }
      retire(std::move(ev));
    }
    next_id_ += task.next_local_ - 1;
    task.done_.clear();
    task.stack_.clear();
    task.next_local_ = 1;
  }
}

void Tracer::retire(TraceEvent&& event) {
  ring_[finished_ % capacity_] = std::move(event);
  ++finished_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  const std::uint64_t retained = std::min<std::uint64_t>(finished_, capacity_);
  out.reserve(retained);
  const std::uint64_t begin = finished_ - retained;
  for (std::uint64_t i = begin; i < finished_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.id < b.id; });
  return out;
}

std::uint64_t Tracer::finished_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return finished_;
}

std::uint64_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return finished_ > capacity_ ? finished_ - capacity_ : 0;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& e : ring_) e = TraceEvent{};
  finished_ = 0;
  next_id_ = 1;
  stack_.clear();
}

namespace {

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string Tracer::to_json() const {
  const std::vector<TraceEvent> evs = events();
  std::uint64_t finished;
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    finished = finished_;
    dropped = finished_ > capacity_ ? finished_ - capacity_ : 0;
  }
  std::ostringstream out;
  out << "{\"finished\":" << finished << ",\"dropped\":" << dropped
      << ",\"events\":[";
  bool first = true;
  for (const auto& e : evs) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":" << e.id << ",\"parent\":" << e.parent << ",\"name\":";
    append_escaped(out, e.name);
    out << ",\"label\":";
    append_escaped(out, e.label);
    out << ",\"kind\":" << (e.kind == SpanKind::kParallel ? "\"parallel\"" : "\"serial\"")
        << ",\"start_us\":" << e.start_us << ",\"duration_us\":" << e.duration_us
        << ",\"charged_us\":" << e.charged_us << ",\"outcome\":\""
        << error_code_name(e.outcome) << "\",\"retries\":" << e.retries
        << ",\"bytes\":" << e.bytes << '}';
  }
  out << "]}";
  return out.str();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint64_t reconcile_exclusive_us(const std::vector<TraceEvent>& events,
                                     std::uint64_t root_id) {
  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> children;
  std::unordered_map<std::uint64_t, const TraceEvent*> by_id;
  for (const auto& e : events) {
    by_id[e.id] = &e;
    children[e.parent].push_back(&e);
  }
  std::uint64_t total = 0;
  std::vector<std::uint64_t> work{root_id};
  std::unordered_set<std::uint64_t> seen;
  while (!work.empty()) {
    const std::uint64_t id = work.back();
    work.pop_back();
    if (!seen.insert(id).second) continue;
    auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    const TraceEvent& e = *it->second;
    // Parallel branches' costs are already folded into their fanout group's
    // composed duration; do not descend into them.
    if (e.id != root_id && e.kind == SpanKind::kParallel) continue;
    const std::uint64_t exclusive =
        e.duration_us > e.charged_us ? e.duration_us - e.charged_us : 0;
    total += exclusive;
    auto cit = children.find(id);
    if (cit != children.end()) {
      for (const TraceEvent* c : cit->second) work.push_back(c->id);
    }
  }
  return total;
}

}  // namespace rockfs::obs
