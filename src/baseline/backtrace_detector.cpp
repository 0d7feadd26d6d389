#include "src/baseline/backtrace_detector.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace adgc {

std::vector<std::byte> encode_backtrace_message(const BacktraceMessage& m) {
  ByteWriter w;
  if (const auto* rq = std::get_if<BacktraceRequestMsg>(&m)) {
    w.u8(kBacktraceRequestTag);
    w.u64(rq->trace_id);
    w.u64(rq->req_id);
    w.u64(rq->subject_ref);
    w.u32(static_cast<std::uint32_t>(rq->visited.size()));
    for (RefId r : rq->visited) w.u64(r);
    w.u32(rq->depth);
  } else {
    const auto& rp = std::get<BacktraceReplyMsg>(m);
    w.u8(kBacktraceReplyTag);
    w.u64(rp.trace_id);
    w.u64(rp.req_id);
    w.boolean(rp.reachable);
  }
  return w.take();
}

BacktraceMessage decode_backtrace_message(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const std::uint8_t tag = r.u8();
  if (tag == kBacktraceRequestTag) {
    BacktraceRequestMsg m;
    m.trace_id = r.u64();
    m.req_id = r.u64();
    m.subject_ref = r.u64();
    const std::uint32_t n = r.u32();
    if (n > r.remaining() / 8) throw DecodeError("ref vector length too large");
    m.visited.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) m.visited.push_back(r.u64());
    m.depth = r.u32();
    r.expect_done();
    return m;
  }
  if (tag == kBacktraceReplyTag) {
    BacktraceReplyMsg m;
    m.trace_id = r.u64();
    m.req_id = r.u64();
    m.reachable = r.boolean();
    r.expect_done();
    return m;
  }
  throw DecodeError("not a back-trace message");
}

BacktraceBaseline::BacktraceBaseline(Runtime& rt) : rt_(rt), states_(rt) {
  rt_.add_envelope_hook([this](const Envelope& env) { return deliver(env); });
}

bool BacktraceBaseline::deliver(const Envelope& env) {
  if (env.bytes.empty()) return false;
  const auto tag = static_cast<std::uint8_t>(env.bytes[0]);
  if (tag != kBacktraceRequestTag && tag != kBacktraceReplyTag) return false;
  // The simulated network never corrupts bytes, so a DecodeError here is a
  // codec bug and escapes to the caller driving the runtime.
  std::visit([&](const auto& m) { on(env.dst, env.src, m); },
             decode_backtrace_message(env.bytes));
  return true;
}

void BacktraceBaseline::send(ProcessId src, ProcessId dst, const BacktraceMessage& m) {
  rt_.env(src).send_encoded(dst, encode_backtrace_message(m));
}

BacktraceBaseline::State& BacktraceBaseline::touch(ProcessId pid) {
  expire(pid, rt_.proc(pid).config().detection_timeout_us);
  return states_[pid];
}

void BacktraceBaseline::start(ProcessId pid, RefId candidate) {
  State& st = touch(pid);
  const ScionEntry* scion = rt_.proc(pid).scions().find(candidate);
  if (!scion || scion->target_root_reachable) return;

  Trace tr;
  tr.trace_id = st.next_trace++;
  tr.candidate = candidate;
  tr.start_ic = scion->ic;
  tr.started_at = rt_.now();

  const std::uint64_t req = st.next_req++;
  st.traces.emplace(req, tr);

  BacktraceRequestMsg msg;
  msg.trace_id = tr.trace_id;
  msg.req_id = req;
  msg.subject_ref = candidate;
  msg.visited = {candidate};
  msg.depth = 1;
  ++counters_.requests;
  send(pid, scion->holder, msg);
}

void BacktraceBaseline::on(ProcessId self, ProcessId src, const BacktraceRequestMsg& msg) {
  State& st = touch(self);
  counters_.max_depth = std::max(counters_.max_depth, msg.depth);
  auto reply = [&](bool reachable) {
    BacktraceReplyMsg out;
    out.trace_id = msg.trace_id;
    out.req_id = msg.req_id;
    out.reachable = reachable;
    ++counters_.replies;
    send(self, src, out);
  };

  const auto summary = rt_.proc(self).current_summary();
  if (!summary) {
    reply(true);  // cannot prove anything: conservatively "reachable"
    return;
  }
  const StubSummary* stub = summary->stub(msg.subject_ref);
  if (!stub) {
    // Not in our snapshot: unknown state, stay conservative.
    reply(true);
    return;
  }
  if (stub->local_reach) {
    reply(true);
    return;
  }
  // Recurse into every scion converging on this stub that the trace has not
  // visited yet. A dependency already on the path closes a loop: it cannot
  // make the subject reachable by itself.
  std::vector<RefId> deps;
  for (RefId d : stub->scions_to) {
    if (std::find(msg.visited.begin(), msg.visited.end(), d) == msg.visited.end()) {
      deps.push_back(d);
    }
  }
  if (deps.empty()) {
    reply(false);
    return;
  }

  const std::uint64_t key = st.next_node_key++;
  Node node;
  node.trace_id = msg.trace_id;
  node.parent_req = msg.req_id;
  node.reply_to = src;
  node.created_at = rt_.now();

  for (RefId d : deps) {
    const ScionSummary* dep = summary->scion(d);
    if (!dep || dep->holder == kNoProcess) continue;  // unknown: skip branch
    const std::uint64_t child = st.next_req++;
    node.children.push_back(child);
    st.child_to_node.emplace(child, key);
    ++node.pending;

    BacktraceRequestMsg fwd;
    fwd.trace_id = msg.trace_id;
    fwd.req_id = child;
    fwd.subject_ref = d;
    fwd.visited = msg.visited;
    fwd.visited.push_back(d);
    fwd.depth = msg.depth + 1;
    ++counters_.requests;
    send(self, dep->holder, fwd);
  }
  if (node.pending == 0) {
    reply(false);
    return;
  }
  st.nodes.emplace(key, std::move(node));
}

void BacktraceBaseline::on(ProcessId self, ProcessId /*src*/, const BacktraceReplyMsg& msg) {
  State& st = touch(self);
  // Root of a trace?
  if (st.traces.contains(msg.req_id)) {
    finish_trace(self, st, msg.req_id, msg.reachable);
    return;
  }
  auto cit = st.child_to_node.find(msg.req_id);
  if (cit == st.child_to_node.end()) return;  // late/duplicate reply
  const std::uint64_t key = cit->second;
  st.child_to_node.erase(cit);
  auto nit = st.nodes.find(key);
  if (nit == st.nodes.end()) return;
  Node& node = nit->second;
  if (msg.reachable) {
    reply_up(self, node, true);  // short-circuit: one live path suffices
    drop_node(st, key);
    return;
  }
  if (--node.pending == 0) {
    reply_up(self, node, false);
    drop_node(st, key);
  }
}

void BacktraceBaseline::reply_up(ProcessId self, const Node& node, bool reachable) {
  BacktraceReplyMsg out;
  out.trace_id = node.trace_id;
  out.req_id = node.parent_req;
  out.reachable = reachable;
  ++counters_.replies;
  send(self, node.reply_to, out);
}

void BacktraceBaseline::drop_node(State& st, std::uint64_t key) {
  auto it = st.nodes.find(key);
  if (it == st.nodes.end()) return;
  for (std::uint64_t child : it->second.children) st.child_to_node.erase(child);
  st.nodes.erase(it);
}

void BacktraceBaseline::finish_trace(ProcessId self, State& st, std::uint64_t req_id,
                                     bool reachable) {
  auto it = st.traces.find(req_id);
  if (it == st.traces.end()) return;
  const Trace tr = it->second;
  st.traces.erase(it);
  if (reachable) return;

  // Trace proved the candidate unreachable; the revalidating delete is a
  // simplified stand-in for the baseline's transfer barrier.
  if (rt_.proc(self).drop_scion(tr.candidate, tr.start_ic) == Process::ScionDrop::kDropped) {
    ++counters_.cycles_found;
  }
}

void BacktraceBaseline::expire(ProcessId pid, SimTime max_age) {
  State& st = states_[pid];
  const SimTime now = rt_.now();
  std::erase_if(st.traces,
                [&](const auto& kv) { return kv.second.started_at + max_age <= now; });
  std::vector<std::uint64_t> stale;
  for (const auto& [key, node] : st.nodes) {
    if (node.created_at + max_age <= now) stale.push_back(key);
  }
  for (std::uint64_t key : stale) drop_node(st, key);
}

std::size_t BacktraceBaseline::state_records(ProcessId pid) const {
  const State* st = states_.find(pid);
  return st ? st->nodes.size() + st->traces.size() : 0;
}

}  // namespace adgc
