// rmi_tcp: synchronous RMI over localhost TCP between three NodeRuntimes.
//
// Client (0) calls server (1) in a closed loop, one call outstanding. Each
// call passes fresh objects of the client's own (exported on the spot) and
// references the client holds into the owner (2), so every call runs
// scion-first AddScion handshakes with the owner before the invocation
// leaves, plus a by-value payload. The server stores the arguments and the
// bench trims them to a fixed window, oldest first, so NewSetStubs and
// acyclic scion deletion flow steadily. The collectors run on their own
// timers at the production ProcessConfig periods.
//
// The bench and all three nodes run on one CPU. A call passes through about
// ten threads in turn. On a shared virtual machine, waking a thread on an
// idle CPU waits until the host runs that CPU again, so with the threads
// spread out, the call rate followed the host's load (it varied up to 3x
// between runs on a 4-vCPU machine). On one busy CPU every handoff is a
// context switch, and the figures follow the program.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <deque>
#include <map>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/suite.h"
#include "src/common/rng.h"
#include "src/rt/node_runtime.h"

namespace pb {

using namespace adgc;

namespace {

constexpr std::size_t kOwnArgs = 2;        // fresh client objects per call
constexpr std::size_t kHeldArgs = 2;       // owner references per call
constexpr std::size_t kHeldPool = 8;       // owner references the client holds
constexpr std::size_t kPayload = 1024;     // by-value bytes per call
constexpr std::size_t kWindow = 64;        // stored arguments the server keeps
constexpr auto kReplyDeadline = std::chrono::seconds(5);
constexpr int kClusters = 5;               // clusters built and measured per run

std::uint16_t reserve_port() {
  Metrics m;
  TcpTransport::Options o;
  o.self = 99;
  TcpTransport probe(o, m);
  probe.start();
  const std::uint16_t port = probe.port();
  probe.stop(0);
  return port;
}

struct Cluster {
  std::unique_ptr<NodeRuntime> client, server, owner;
  ObjectSeq client_obj = kNoObject;
  ObjectSeq server_obj = kNoObject;
  RefId call_ref = kNoRef;
  std::vector<RefId> held;
  std::vector<ObjectId> held_targets;
  Metrics* client_metrics = nullptr;  // atomics: readable from the bench thread
  std::deque<ObjectId> sent_targets;  // targets of the last kWindow args sent
  Clock::time_point started = Clock::now();

  ~Cluster() {
    for (auto* n : {client.get(), server.get(), owner.get()}) {
      if (n) n->stop(20'000);
    }
  }

  Metrics totals() {
    Metrics m;
    m.merge(client->total_metrics());
    m.merge(server->total_metrics());
    m.merge(owner->total_metrics());
    return m;
  }
};

/// Per-call samples and counters of one measured phase.
struct Phase {
  std::uint64_t calls = 0;
  std::uint64_t timeouts = 0;
  std::vector<double> latency_us;
  std::vector<double> invoke_us;
  std::vector<double> wait_us;
  std::uint64_t msgs = 0;   // transport messages sent
  std::uint64_t bytes = 0;  // ...and their bytes
  std::uint64_t stub_changes = 0;
  std::uint64_t server_nss = 0;
  /// Per-second segments: CPU of the runtime threads, not the bench thread.
  Segments seg{1.0, [] { return process_cpu_s() - thread_cpu_s(); }};
};

/// One call: posts the invoke to the client actor, waits for the reply
/// counter to move (reading the client's atomic counter, not posting polls
/// to the actor it measures), then posts the window trim to the server.
void one_call(Cluster& c, Rng& rng, Tracer* t, Phase& ph,
              std::map<ProcessId, std::vector<RefId>>& last_sets,
              Clock::time_point& last_sample) {
  Scope call(t, "phase.rmi_call");
  const std::uint32_t parent = call.id();
  const std::uint64_t expected = c.client_metrics->replies_received.get() + 1;
  std::atomic<bool> closure_done{false};
  std::vector<ObjectId> targets;
  double invoke_us = 0, wait_us = 0;
  const std::uint64_t posted = now_ns();
  std::vector<std::size_t> pick;
  for (std::size_t i = 0; i < kHeldArgs; ++i) pick.push_back(rng.below(kHeldPool));
  c.client->post([&](Process& p) {
    Scope hop(t, "rt.actor_hop", 0, parent);
    const std::uint64_t start = now_ns();
    wait_us = static_cast<double>(start - posted) / 1000.0;
    std::vector<ArgRef> args;
    for (std::size_t i = 0; i < kOwnArgs; ++i) {
      const ObjectSeq obj = p.create_object(64);
      args.push_back(ArgRef::own(obj));
      targets.push_back({0, obj});
    }
    for (std::size_t i : pick) {
      args.push_back(ArgRef::held(c.held[i]));
      targets.push_back(c.held_targets[i]);
    }
    const std::uint64_t t0 = now_ns();
    {
      Scope s(t, "rt.invoke", args.size());
      p.invoke(c.client_obj, c.call_ref, InvokeEffect::kStoreArgs, std::move(args), true,
               kPayload);
    }
    invoke_us = static_cast<double>(now_ns() - t0) / 1000.0;
    closure_done.store(true, std::memory_order_release);
  });
  bool ok = true;
  {
    Scope w(t, "net.await_reply");
    const auto deadline = Clock::now() + kReplyDeadline;
    // Yield, do not sleep: a runnable node thread runs first, and otherwise
    // the CPU stays awake, so no step of the call waits for it to wake.
    while (c.client_metrics->replies_received.get() < expected ||
           !closure_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      if (Clock::now() > deadline) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    // The closure still references this frame: wait for it before returning.
    while (!closure_done.load(std::memory_order_acquire)) std::this_thread::yield();
    ++ph.timeouts;
    return;
  }
  ph.latency_us.push_back(static_cast<double>(now_ns() - posted) / 1000.0);
  ph.seg.op(ph.latency_us.back());
  ph.invoke_us.push_back(invoke_us);
  ph.wait_us.push_back(wait_us);
  for (const ObjectId& id : targets) {
    c.sent_targets.push_back(id);
    if (c.sent_targets.size() > kWindow) c.sent_targets.pop_front();
  }
  // Trim asynchronously; stub-set changes are sampled at most once per LGC
  // period so they compare with the NewSetStubs the server sends.
  const bool sample = Clock::now() - last_sample >= std::chrono::milliseconds(20);
  if (sample) last_sample = Clock::now();
  const std::uint32_t trim_parent = t ? call.id() : 0;
  c.server->post([&c, t, trim_parent, sample, &last_sets, &ph](Process& p) {
    Scope hop(t, "rt.actor_hop", 0, trim_parent);
    HeapObject* obj = p.heap().find(c.server_obj);
    while (obj && obj->remote_fields.size() > kWindow) {
      p.remove_remote_ref(c.server_obj, obj->remote_fields.front());
    }
    if (!sample) return;
    std::map<ProcessId, std::vector<RefId>> sets = p.stubs().live_refs_by_owner();
    for (const auto& [peer, refs] : sets) {
      if (last_sets[peer] != refs) ++ph.stub_changes;
    }
    last_sets = std::move(sets);
  });
}

/// Runs the closed loop on `c` for `seconds`, adding to `ph`.
void measure(Cluster& c, double seconds, Rng& rng, Tracer* t, Phase& ph) {
  Scope phase(t, "phase.rmi_loop");
  std::map<ProcessId, std::vector<RefId>> last_sets;
  Clock::time_point last_sample = Clock::now();
  const Metrics before = c.totals();
  const Metrics server_before = c.server->total_metrics();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    ++ph.calls;
    one_call(c, rng, t, ph, last_sets, last_sample);
  }
  ph.seg.finish();
  // Let the last trim run before reading counters the trim closures bump.
  c.server->post_sync([](Process&) {});
  const Metrics after = c.totals();
  ph.msgs += delta(after.messages_sent, before.messages_sent);
  ph.bytes += delta(after.bytes_sent, before.bytes_sent);
  ph.server_nss +=
      delta(c.server->total_metrics().new_set_stubs_sent, server_before.new_set_stubs_sent);
}

std::unique_ptr<Cluster> build_cluster(std::uint64_t seed, Rng& rng, int warm_calls) {
  auto c = std::make_unique<Cluster>();
  const std::uint16_t ports[3] = {reserve_port(), reserve_port(), reserve_port()};
  std::map<ProcessId, PeerAddr> peers;
  for (ProcessId pid = 0; pid < 3; ++pid) peers[pid] = {"127.0.0.1", ports[pid]};
  auto opts = [&](ProcessId pid) {
    NodeRuntime::Options o;
    o.pid = pid;
    o.cfg.seed = seed * 3 + pid;
    o.listen = "127.0.0.1:" + std::to_string(ports[pid]);
    o.peers = peers;
    return o;
  };
  c->client = std::make_unique<NodeRuntime>(opts(0));
  c->server = std::make_unique<NodeRuntime>(opts(1));
  c->owner = std::make_unique<NodeRuntime>(opts(2));
  c->client->start();
  c->server->start();
  c->owner->start();

  ExportedRef call_target;
  c->server->post_sync([&](Process& p) {
    c->server_obj = p.create_object();
    p.add_root(c->server_obj);
    call_target = p.export_own_object(c->server_obj, 0);
  });
  std::vector<ExportedRef> exported(kHeldPool);
  c->owner->post_sync([&](Process& p) {
    for (auto& er : exported) {
      const ObjectSeq obj = p.create_object(64);
      p.add_root(obj);
      er = p.export_own_object(obj, 0);
    }
  });
  c->client->post_sync([&](Process& p) {
    c->client_obj = p.create_object();
    p.add_root(c->client_obj);
    c->call_ref = p.install_ref(c->client_obj, call_target);
    for (const ExportedRef& er : exported) {
      c->held.push_back(p.install_ref(c->client_obj, er));
      c->held_targets.push_back(er.target);
    }
    c->client_metrics = &p.metrics();
  });
  // Warm-up: connections, handshake path, allocator.
  Phase warm;
  std::map<ProcessId, std::vector<RefId>> sets;
  Clock::time_point sample = Clock::now();
  for (int i = 0; i < warm_calls; ++i) one_call(*c, rng, nullptr, warm, sets, sample);
  c->server->post_sync([](Process&) {});  // trims reference this frame
  return c;
}

/// The server must hold exactly the last kWindow arguments, each backed by
/// a stub whose target object still exists at its owner. Returns false on a
/// safety violation (a stored reference whose object is gone).
bool check_window(Cluster& c, Report& r) {
  std::vector<ObjectId> held;
  bool stubs_ok = true;
  c.server->post_sync([&](Process& p) {
    HeapObject* obj = p.heap().find(c.server_obj);
    while (obj && obj->remote_fields.size() > kWindow) {
      p.remove_remote_ref(c.server_obj, obj->remote_fields.front());
    }
    if (!obj) return;
    for (RefId ref : obj->remote_fields) {
      const StubEntry* s = p.stubs().find(ref);
      if (!s) {
        stubs_ok = false;
        continue;
      }
      held.push_back(s->target);
    }
  });
  std::vector<ObjectId> want(c.sent_targets.begin(), c.sent_targets.end());
  std::sort(want.begin(), want.end());
  std::sort(held.begin(), held.end());
  r.attempted += 1;
  if (!stubs_ok || held != want) {
    ++r.failed;
    r.notes.push_back("server window differs from the last arguments sent");
  }
  std::size_t missing = 0;
  for (const ObjectId& id : held) {
    NodeRuntime& n = id.owner == 0 ? *c.client : *c.owner;
    n.post_sync([&](Process& p) { missing += p.heap().exists(id.seq) ? 0 : 1; });
  }
  if (missing > 0) {
    r.notes.push_back("stored reference targets reclaimed: " + std::to_string(missing));
    return false;
  }
  return true;
}

}  // namespace

Report run_rmi_tcp(const Options& o, Tracer* t) {
  Report r;
  // Threads inherit the affinity: every node thread built below shares the
  // bench thread's CPU.
  cpu_set_t cpu;
  CPU_ZERO(&cpu);
  CPU_SET(sched_getcpu(), &cpu);
  sched_setaffinity(0, sizeof cpu, &cpu);
  Rng rng(o.seed);
  const int warm_calls = o.tiny ? 20 : 200;
  const double secs = o.tiny ? 0.3 : o.seconds;
  // Untraced: kClusters clusters, each measured for an equal share of the
  // run and checked, pooled into `ph`. Each starts its threads afresh, so no
  // single cluster's placement on the host decides the run. Traced: one
  // cluster, measured untraced for half the run and traced for the other.
  const int clusters = o.trace ? 1 : kClusters;
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> c;
  Phase ph, untraced;
  for (int i = 0; i < clusters; ++i) {
    c.reset();
    // Hand the last cluster's freed memory back to the system, so that each
    // cluster's peak resident set starts from the same base.
    malloc_trim(0);
    const std::uint64_t t0 = now_ns();
    {
      Scope s(t, "phase.setup");
      c = build_cluster(o.seed + static_cast<std::uint64_t>(i), rng, warm_calls);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (o.trace) {
      measure(*c, secs / 2, rng, nullptr, untraced);
      measure(*c, secs / 2, rng, t, ph);
    } else {
      measure(*c, secs / clusters, rng, nullptr, ph);
    }
    if (!check_window(*c, r)) r.correct = false;
  }
  const std::uint64_t done = ph.latency_us.size();
  r.attempted += ph.calls + untraced.calls;
  r.failed += ph.timeouts + untraced.timeouts;

  const double calls = static_cast<double>(std::max<std::uint64_t>(1, done));
  const double msgs = static_cast<double>(ph.msgs);
  const double bytes = static_cast<double>(ph.bytes);
  const double rmi_per_s = ph.seg.rate();
  const double p50 = ph.seg.p50(), p99 = ph.seg.p99();

  if (!o.trace) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("ops_per_s", rmi_per_s, "1/s");
    r.e2e("p50_ms", p50 / 1000.0, "ms");
    r.e2e("p99_ms", p99 / 1000.0, "ms");
    r.e2e("msgs_per_op", msgs / calls, "msgs");
    r.e2e("cpu_ms_per_op", ph.seg.cpu_ms_per_op(), "ms");
    r.figure("rmi_per_s", rmi_per_s, "1/s");
    r.figure("rmi_p50_us", p50, "us");
    r.figure("rmi_p99_us", p99, "us");
    r.figure("rmi_p99_pooled_us", quantile(ph.latency_us, 0.99), "us");
    r.figure("msgs_per_rmi", msgs / calls, "msgs");
    r.figure("samples", static_cast<double>(done), "count");
  } else {
    const std::string w = "rmi_tcp";
    r.layer("rt.invoke_us", median(ph.invoke_us), "us", w);
    r.layer("rt.actor_wait_us", median(ph.wait_us), "us", w);
    r.layer("net.bytes_per_rmi", bytes / calls, "B", w);
    r.layer("dgc.nss_useful_frac",
            frac(static_cast<double>(ph.stub_changes), static_cast<double>(ph.server_nss)),
            "frac", w);
    // Counter figures over the cluster's whole life (three processes).
    counter_layers(r, c->totals(),
                   3.0 * std::chrono::duration<double>(Clock::now() - c->started).count(), w);
    // Idle cost: no calls, collectors still on their timers.
    const Metrics idle0 = c->totals();
    const double idle_s = 0.5;
    std::this_thread::sleep_for(std::chrono::duration<double>(idle_s));
    const Metrics idle1 = c->totals();
    r.layer("net.quiescent_msgs_per_proc_s",
            static_cast<double>(delta(idle1.messages_sent, idle0.messages_sent)) / (3 * idle_s),
            "1/s", w);
    const double untraced_rate = untraced.seg.rate();
    r.layer("trace.overhead_pct", frac(untraced_rate - rmi_per_s, untraced_rate) * 100.0, "%",
            w);

    SuiteInput in;
    in.shape.invoke_args = kOwnArgs + kHeldArgs;
    in.shape.invoke_payload = kPayload;
    in.shape.nss_live = kWindow;
    in.shape.payload_bytes = 64;
    for (NodeRuntime* n : {c->client.get(), c->server.get(), c->owner.get()}) {
      n->post_sync([&](Process& p) {
        in.heaps.push_back(capture_snapshot(p.id(), p.now(), p.heap(), p.stubs(), p.scions()));
      });
    }
    c.reset();
    layer_suite(o, t, in, r);
  }
  c.reset();
  return r;
}

}  // namespace pb
