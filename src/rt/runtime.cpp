#include "src/rt/runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace adgc {

class Runtime::SimEnv final : public Env {
 public:
  SimEnv(Runtime& rt, ProcessId pid, std::uint64_t seed)
      : rt_(rt), pid_(pid), rng_(seed), trace_(rt.cfg_.proc.trace_ring_capacity) {}

  SimTime now() const override { return rt_.now_; }

  void send(ProcessId dst, const MessagePayload& msg) override {
    send_encoded(dst, encode_message(msg));
  }

  void send_encoded(ProcessId dst, std::vector<std::byte> bytes) override {
    Envelope env;
    env.src = pid_;
    env.dst = dst;
    env.src_inc = rt_.incarnations_[pid_];
    env.dst_inc = rt_.incarnations_[dst];
    env.bytes = std::move(bytes);
    rt_.network_->send(rt_.now_, std::move(env));
  }

  void schedule(SimTime delay, std::function<void()> fn) override {
    rt_.push_at(rt_.now_ + delay, TimerEvent{pid_, rt_.incarnations_[pid_], std::move(fn)});
  }

  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }
  obs::TraceRing* trace() override { return trace_.enabled() ? &trace_ : nullptr; }

 private:
  Runtime& rt_;
  ProcessId pid_;
  Rng rng_;
  Metrics metrics_;
  obs::TraceRing trace_;
};

Runtime::Runtime(std::size_t num_processes, RuntimeConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  network_ = std::make_unique<SimNetwork>(
      cfg_.net, rng_.fork(),
      [this](SimTime when, Envelope env) { push_at(when, std::move(env)); },
      &net_metrics_);
  envs_.reserve(num_processes);
  procs_.reserve(num_processes);
  incarnations_.assign(num_processes, 0);
  for (std::size_t i = 0; i < num_processes; ++i) {
    envs_.push_back(std::make_unique<SimEnv>(*this, static_cast<ProcessId>(i),
                                             rng_.next_u64()));
    procs_.push_back(std::make_unique<Process>(static_cast<ProcessId>(i), cfg_.proc,
                                               *envs_.back()));
  }
  for (auto& p : procs_) p->start();
}

void Runtime::crash(ProcessId pid) {
  if (!alive(pid)) throw std::logic_error("crash: process already down");
  procs_.at(pid).reset();  // volatile state gone; timers/messages die on the checks
  envs_.at(pid)->metrics().process_crashes.add();
  obs::emit(envs_.at(pid)->trace(),
            {now_, pid, obs::EventType::kCrash, 0, pid, 0, 0});
  for (auto& p : procs_) {
    if (p) p->on_peer_crashed(pid);
  }
}

bool Runtime::restart(ProcessId pid) {
  if (alive(pid)) throw std::logic_error("restart: process is alive");
  ++incarnations_.at(pid);
  procs_.at(pid) = std::make_unique<Process>(pid, cfg_.proc, *envs_.at(pid),
                                             incarnations_.at(pid));
  const bool recovered = procs_.at(pid)->recover_from_store();
  envs_.at(pid)->metrics().process_restarts.add();
  if (recovered) envs_.at(pid)->metrics().restarts_recovered.add();
  obs::emit(envs_.at(pid)->trace(),
            {now_, pid, obs::EventType::kRestart, 0, pid, incarnations_.at(pid),
             recovered ? 1u : 0u});
  procs_.at(pid)->start();
  return recovered;
}

Runtime::~Runtime() = default;

Env& Runtime::env(ProcessId pid) { return *envs_.at(pid); }

void Runtime::push_at(SimTime when, std::variant<Envelope, TimerEvent> what) {
  if (explicit_) {
    list_.push_back(Event{when, next_event_seq_++, std::move(what)});
  } else {
    queue_.push(Event{when, next_event_seq_++, std::move(what)});
  }
}

void Runtime::enable_explicit_schedule() {
  if (explicit_) return;
  explicit_ = true;
  // Migrate whatever the ordered scheduler already holds (the periodic
  // collector timers armed by start()) into the explicit pending list.
  while (!queue_.empty()) {
    list_.push_back(queue_.top());
    queue_.pop();
  }
}

std::vector<Runtime::PendingInfo> Runtime::pending_infos() const {
  std::vector<PendingInfo> out;
  out.reserve(list_.size());
  for (const Event& ev : list_) {
    PendingInfo info;
    info.id = ev.seq;
    info.when = ev.when;
    if (const auto* env = std::get_if<Envelope>(&ev.what)) {
      info.is_message = true;
      info.src = env->src;
      info.dst = env->dst;
      info.tag = env->bytes.empty() ? 0 : static_cast<std::uint8_t>(env->bytes[0]);
    } else {
      info.dst = std::get<TimerEvent>(ev.what).owner;
    }
    out.push_back(info);
  }
  return out;
}

bool Runtime::execute_event(std::uint64_t id) {
  for (auto it = list_.begin(); it != list_.end(); ++it) {
    if (it->seq != id) continue;
    Event ev = std::move(*it);
    list_.erase(it);
    execute(std::move(ev));
    return true;
  }
  return false;
}

bool Runtime::drop_event(std::uint64_t id) {
  for (auto it = list_.begin(); it != list_.end(); ++it) {
    if (it->seq != id) continue;
    if (std::holds_alternative<Envelope>(it->what)) net_metrics_.messages_lost.add();
    list_.erase(it);
    return true;
  }
  return false;
}

bool Runtime::event_stale(const Event& ev) const {
  if (const auto* env = std::get_if<Envelope>(&ev.what)) {
    return !alive(env->dst) || env->src_inc != incarnations_[env->src] ||
           env->dst_inc != incarnations_[env->dst];
  }
  const TimerEvent& timer = std::get<TimerEvent>(ev.what);
  return !alive(timer.owner) || timer.inc != incarnations_[timer.owner];
}

std::size_t Runtime::prune_stale_events() {
  std::size_t removed = 0;
  for (auto it = list_.begin(); it != list_.end();) {
    if (!event_stale(*it)) {
      ++it;
      continue;
    }
    if (const auto* env = std::get_if<Envelope>(&it->what)) {
      if (!alive(env->dst)) {
        net_metrics_.messages_dropped_crashed.add();
      } else {
        net_metrics_.messages_stale_incarnation.add();
      }
    }
    it = list_.erase(it);
    ++removed;
  }
  return removed;
}

void Runtime::execute(Event&& ev) {
  // max(): the explicit scheduler may fire events out of timestamp order;
  // logical time never runs backwards. (The ordered scheduler pops in
  // nondecreasing `when`, so there this is the plain assignment it was.)
  now_ = std::max(now_, ev.when);
  if (auto* env = std::get_if<Envelope>(&ev.what)) {
    if (!alive(env->dst)) {
      net_metrics_.messages_dropped_crashed.add();
      return;
    }
    // Incarnation check: a message from a dead incarnation reflects state the
    // restart rolled back; one addressed to a dead incarnation may name
    // identifiers the restarted process never knew. Drop both kinds.
    if (env->src_inc != incarnations_[env->src] ||
        env->dst_inc != incarnations_[env->dst]) {
      net_metrics_.messages_stale_incarnation.add();
      return;
    }
    net_metrics_.messages_delivered.add();
    for (const EnvelopeHook& hook : hooks_) {
      if (hook(*env)) return;
    }
    procs_.at(env->dst)->deliver(*env);
  } else {
    TimerEvent& timer = std::get<TimerEvent>(ev.what);
    // Skip timers armed by a crashed or replaced incarnation: their closures
    // capture the destroyed Process instance.
    if (!alive(timer.owner) || timer.inc != incarnations_[timer.owner]) return;
    timer.fn();
  }
}

bool Runtime::step() {
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  execute(std::move(ev));
  return true;
}

void Runtime::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    Event ev = queue_.top();
    queue_.pop();
    execute(std::move(ev));
  }
  now_ = std::max(now_, deadline);
}

void Runtime::run_for(SimTime duration) { run_until(now_ + duration); }

Metrics Runtime::total_metrics() const {
  Metrics total;
  total.merge(net_metrics_);
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    total.merge(const_cast<Runtime*>(this)->envs_[i]->metrics());
  }
  return total;
}

std::vector<obs::Event> Runtime::trace_events() const {
  std::vector<obs::Event> all;
  for (const auto& env : envs_) {
    if (const obs::TraceRing* ring = const_cast<SimEnv*>(env.get())->trace()) {
      const std::vector<obs::Event> evs = ring->snapshot();
      all.insert(all.end(), evs.begin(), evs.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const obs::Event& a, const obs::Event& b) {
    return a.ts < b.ts;
  });
  return all;
}

RefId Runtime::link(ObjectId from, ObjectId to) {
  const ExportedRef er = proc(to.owner).export_own_object(to.seq, from.owner);
  return proc(from.owner).install_ref(from.seq, er);
}

}  // namespace adgc
