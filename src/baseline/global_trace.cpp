#include "src/baseline/global_trace.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "src/common/bytes.h"
#include "src/common/log.h"

namespace adgc {

namespace {

// Every global-trace message is a fixed run of u64 fields; one field list per
// kind drives both directions of the codec.
auto fields(GtStartMsg& m) { return std::tie(m.epoch, m.epoch_start); }
auto fields(GtMarkMsg& m) { return std::tie(m.epoch, m.ref); }
auto fields(GtPollMsg& m) { return std::tie(m.epoch, m.poll_seq); }
auto fields(GtStatusMsg& m) {
  return std::tie(m.epoch, m.poll_seq, m.marks_sent, m.marks_processed);
}
auto fields(GtFinishMsg& m) { return std::tie(m.epoch); }

/// The empty alternative whose tag is kGtStartTag + `index`.
template <std::size_t I = 0>
GlobalTraceMessage alternative(std::size_t index) {
  if constexpr (I < std::variant_size_v<GlobalTraceMessage>) {
    if (index == I) return GlobalTraceMessage{std::in_place_index<I>};
    return alternative<I + 1>(index);
  }
  throw DecodeError("not a global-trace message");
}

}  // namespace

std::vector<std::byte> encode_global_trace_message(const GlobalTraceMessage& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kGtStartTag + m.index()));
  const auto put = [&](auto... f) { (w.u64(f), ...); };
  std::visit([&](auto msg) { std::apply(put, fields(msg)); }, m);
  return w.take();
}

GlobalTraceMessage decode_global_trace_message(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  GlobalTraceMessage m = alternative(static_cast<std::uint8_t>(r.u8() - kGtStartTag));
  const auto get = [&](auto&... f) { ((f = r.u64()), ...); };
  std::visit([&](auto& msg) { std::apply(get, fields(msg)); }, m);
  r.expect_done();
  return m;
}

GlobalTraceBaseline::GlobalTraceBaseline(Runtime& rt) : rt_(rt), states_(rt) {
  rt_.add_envelope_hook([this](const Envelope& env) { return deliver(env); });
}

bool GlobalTraceBaseline::deliver(const Envelope& env) {
  if (env.bytes.empty()) return false;
  const auto tag = static_cast<std::uint8_t>(env.bytes[0]);
  if (tag < kGtStartTag || tag > kGtFinishTag) return false;
  // As for the back-tracer: a DecodeError is a codec bug and escapes.
  std::visit([&](const auto& m) { on(env.dst, env.src, m); },
             decode_global_trace_message(env.bytes));
  return true;
}

void GlobalTraceBaseline::send(ProcessId src, ProcessId dst, const GlobalTraceMessage& m) {
  rt_.env(src).send_encoded(dst, encode_global_trace_message(m));
}

bool GlobalTraceBaseline::coordinating(ProcessId coordinator) const {
  const State* st = states_.find(coordinator);
  return st && st->coordinating;
}

std::uint64_t GlobalTraceBaseline::completed_epochs(ProcessId coordinator) const {
  const State* st = states_.find(coordinator);
  return st ? st->completed : 0;
}

bool GlobalTraceBaseline::start_epoch(ProcessId coordinator, std::vector<ProcessId> members,
                                      SimTime poll_interval_us) {
  State& st = states_[coordinator];
  if (st.coordinating) return false;
  st.coordinating = true;
  st.members = std::move(members);
  if (std::find(st.members.begin(), st.members.end(), coordinator) == st.members.end()) {
    st.members.push_back(coordinator);
  }
  st.poll_interval_us = poll_interval_us;
  st.poll_replies.clear();
  st.prev_sent_total = ~0ULL;
  st.prev_processed_total = ~0ULL;

  GtStartMsg msg;
  msg.epoch = st.next_epoch++;
  msg.epoch_start = rt_.now();
  ++counters_.epochs_started;
  for (ProcessId pid : st.members) send(coordinator, pid, msg);

  rt_.env(coordinator).schedule(st.poll_interval_us,
                                [this, coordinator] { send_poll(coordinator); });
  return true;
}

void GlobalTraceBaseline::send_poll(ProcessId self) {
  State& st = states_[self];
  if (!st.coordinating) return;
  st.poll_replies.clear();
  GtPollMsg msg;
  msg.epoch = st.epoch;  // coordinator participates, so its epoch is current
  msg.poll_seq = ++st.poll_seq;
  for (ProcessId pid : st.members) send(self, pid, msg);
  rt_.env(self).schedule(st.poll_interval_us, [this, self] { send_poll(self); });
}

void GlobalTraceBaseline::on(ProcessId self, ProcessId /*src*/, const GtStartMsg& msg) {
  State& st = states_[self];
  st.epoch = msg.epoch;
  st.epoch_start_time = msg.epoch_start;
  st.participating = true;
  st.marked_objects.clear();
  st.marked_stubs.clear();
  st.marked_scions.clear();
  st.sent = 0;
  st.processed = 0;
  for (ObjectSeq root : rt_.proc(self).heap().roots()) local_mark(self, root);
}

void GlobalTraceBaseline::local_mark(ProcessId self, ObjectSeq seed) {
  State& st = states_[self];
  const Process& proc = rt_.proc(self);
  const Heap& heap = proc.heap();
  std::deque<ObjectSeq> frontier;
  if (heap.exists(seed) && st.marked_objects.insert(seed).second) {
    frontier.push_back(seed);
  }
  while (!frontier.empty()) {
    const ObjectSeq cur = frontier.front();
    frontier.pop_front();
    const HeapObject* obj = heap.find(cur);
    if (!obj) continue;
    for (ObjectSeq next : obj->local_fields) {
      if (heap.exists(next) && st.marked_objects.insert(next).second) {
        frontier.push_back(next);
      }
    }
    for (RefId ref : obj->remote_fields) {
      if (!st.marked_stubs.insert(ref).second) continue;
      const StubEntry* stub = proc.stubs().find(ref);
      if (!stub) continue;
      GtMarkMsg mark;
      mark.epoch = st.epoch;
      mark.ref = ref;
      ++st.sent;
      ++counters_.marks_sent;
      send(self, stub->target.owner, mark);
    }
  }
}

void GlobalTraceBaseline::on(ProcessId self, ProcessId /*src*/, const GtMarkMsg& msg) {
  State& st = states_[self];
  if (!st.participating || msg.epoch != st.epoch) return;  // stale epoch
  ++st.processed;
  if (!st.marked_scions.insert(msg.ref).second) return;  // already marked
  const ScionEntry* scion = rt_.proc(self).scions().find(msg.ref);
  if (!scion) return;
  local_mark(self, scion->target);
}

void GlobalTraceBaseline::on(ProcessId self, ProcessId src, const GtPollMsg& msg) {
  const State& st = states_[self];
  if (!st.participating || msg.epoch != st.epoch) return;
  GtStatusMsg status;
  status.epoch = st.epoch;
  status.poll_seq = msg.poll_seq;
  status.marks_sent = st.sent;
  status.marks_processed = st.processed;
  ++counters_.status_msgs;
  send(self, src, status);
}

void GlobalTraceBaseline::on(ProcessId self, ProcessId src, const GtStatusMsg& msg) {
  State& st = states_[self];
  if (!st.coordinating || msg.poll_seq != st.poll_seq) return;  // stale poll
  st.poll_replies[src] = msg;
  if (st.poll_replies.size() < st.members.size()) return;

  std::uint64_t sent_total = 0, processed_total = 0;
  for (const auto& [pid, status] : st.poll_replies) {
    sent_total += status.marks_sent;
    processed_total += status.marks_processed;
  }
  const bool balanced = sent_total == processed_total;
  const bool stable =
      sent_total == st.prev_sent_total && processed_total == st.prev_processed_total;
  st.prev_sent_total = sent_total;
  st.prev_processed_total = processed_total;
  if (!balanced || !stable) return;

  // Terminated: the global trace is complete.
  st.coordinating = false;
  ++st.completed;
  GtFinishMsg fin;
  fin.epoch = st.epoch;
  for (ProcessId pid : st.members) send(self, pid, fin);
  ADGC_INFO("P" << self << " global trace epoch " << st.epoch << " terminated ("
                << sent_total << " marks)");
}

void GlobalTraceBaseline::on(ProcessId self, ProcessId /*src*/, const GtFinishMsg& msg) {
  State& st = states_[self];
  if (!st.participating || msg.epoch != st.epoch) return;
  st.participating = false;
  Process& proc = rt_.proc(self);
  std::vector<RefId> doomed;
  for (const auto& [ref, scion] : proc.scions()) {
    if (st.marked_scions.contains(ref)) continue;
    // Conservative mutation guards: anything created or invoked during the
    // epoch survives until the next epoch.
    if (scion.created_at >= st.epoch_start_time) continue;
    if (scion.last_ic_change >= st.epoch_start_time) continue;
    doomed.push_back(ref);
  }
  for (RefId ref : doomed) proc.drop_scion(ref, std::nullopt);
  counters_.scions_deleted += doomed.size();
  if (!doomed.empty()) {
    ADGC_DEBUG("P" << self << " global trace deleted " << doomed.size() << " scions");
  }
}

}  // namespace adgc
