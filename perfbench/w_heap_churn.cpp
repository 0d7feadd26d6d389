// heap_churn: mutation batches against two large heaps, each followed by a
// local collection and a snapshot request on both processes.
//
// ThreadedRuntime with two processes, each holding ten thousand
// payload-carrying objects plus the churn's; 1% of them hold references into
// the other process. The periodic collectors are off: after every batch the
// bench calls run_lgc and request_snapshot inside post_sync, one process
// after the other, so LGC and snapshot capture dominate while the network
// and the DCDA idle. The snapshot store is on, in the run's work directory.
// The heaps are sized so that a run collects over a thousand pauses.
//
// Remote references only ever target "leaf" objects, which hold no
// references, so garbage spanning both processes is acyclic and the acyclic
// protocol alone reclaims all of it; the bench's mirror graph can then state
// exactly which objects must remain.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/suite.h"
#include "src/common/rng.h"
#include "src/rt/threaded_runtime.h"

namespace pb {

using namespace adgc;

namespace {

constexpr std::size_t kPayload = 32;
constexpr double kLeafShare = 0.05;
constexpr double kRemoteShare = 0.01;
constexpr double kBatchShare = 0.005;  // ops per batch, as a share of the heap
/// Clusters built per untraced run. Each is planted afresh and measured for
/// an equal share of the run, and the figures pool all of them, so no single
/// cluster's placement of threads and memory on the host decides the run.
constexpr int kClusters = 5;

struct MObj {
  bool leaf = false;
  /// The planted spanning tree: never removed, so the planted heap stays
  /// live and every seed collects a heap of the same size.
  std::vector<ObjectSeq> fixed;
  /// Edges the churn adds and removes.
  std::vector<ObjectSeq> local;
  std::vector<std::pair<RefId, ObjectId>> remote;
};

/// The bench's copy of both heaps, indexed by object sequence number (the
/// heap allocates them densely from 1). Objects are never forgotten;
/// liveness is recomputed from the roots after every batch.
struct Mirror {
  std::vector<std::vector<MObj>> objs{2};
  std::vector<std::vector<ObjectSeq>> roots{2};
  std::vector<std::vector<char>> live{2};
  std::vector<std::vector<ObjectSeq>> live_inner{2}, live_leaf{2}, live_all{2};
  /// Objects that were given a removable local or a remote reference
  /// (entries may be stale).
  std::vector<std::vector<ObjectSeq>> local_holders{2}, remote_holders{2};
  /// roots[p][0, fixed_roots) are planted roots, never removed.
  std::size_t fixed_roots[2] = {0, 0};

  MObj& at(ProcessId p, ObjectSeq s) {
    if (objs[p].size() <= s) objs[p].resize(s + 1);
    return objs[p][s];
  }

  void recompute() {
    std::vector<ObjectId> stack;
    for (ProcessId p = 0; p < 2; ++p) {
      live[p].assign(objs[p].size(), 0);
      for (ObjectSeq r : roots[p]) stack.push_back({p, r});
    }
    while (!stack.empty()) {
      const ObjectId id = stack.back();
      stack.pop_back();
      char& seen = live[id.owner][id.seq];
      if (seen) continue;
      seen = 1;
      const MObj& o = objs[id.owner][id.seq];
      for (ObjectSeq s : o.fixed) stack.push_back({id.owner, s});
      for (ObjectSeq s : o.local) stack.push_back({id.owner, s});
      for (const auto& [ref, target] : o.remote) stack.push_back(target);
    }
    for (ProcessId p = 0; p < 2; ++p) {
      live_inner[p].clear();
      live_leaf[p].clear();
      live_all[p].clear();
      for (ObjectSeq s = 0; s < live[p].size(); ++s) {
        if (!live[p][s]) continue;
        live_all[p].push_back(s);
        (objs[p][s].leaf ? live_leaf[p] : live_inner[p]).push_back(s);
      }
    }
  }
};

/// One planned mutation, applied on the owning process's actor thread.
struct Op {
  enum Kind { kAddLocal, kRemoveLocal, kCreate, kAddRoot, kRemoveRoot, kInstall, kDropRemote };
  Kind kind = kAddLocal;
  ObjectSeq a = kNoObject, b = kNoObject;
  ExportedRef ref;
  bool leaf = false;
};

struct Cluster {
  std::unique_ptr<ThreadedRuntime> rt;
  Mirror mirror;
  std::filesystem::path store;
  /// Exports made by one process for the other's next batch.
  std::vector<std::vector<ExportedRef>> exported{2};
  std::vector<std::map<ProcessId, std::vector<RefId>>> last_sets{2};
  Clock::time_point started = Clock::now();
  std::size_t objects_per_proc = 0;
  /// Each process's counters (atomics: the bench reads them without posting).
  Metrics* metrics[2] = {nullptr, nullptr};

  ~Cluster() {
    if (rt) rt->shutdown();
    rt.reset();
    std::error_code ec;
    std::filesystem::remove_all(store, ec);
  }
};

struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  /// Actor-thread CPU time of the mutation and collection closures. CPU
  /// time, not wall time: a host that preempts the actor does not inflate it.
  double busy_cpu_s = 0;
  std::vector<double> pause_ms;      // wall clock, printed for context
  std::vector<double> pause_cpu_ms;  // actor CPU time: the reported pauses
  std::vector<double> mutate_ns;
  std::vector<double> lgc_ns_per_obj;
  std::vector<double> wait_us;
  std::vector<double> publish_lag_ms;
  std::uint64_t unpublished = 0;
  std::uint64_t stub_changes = 0;
  double runtime_cpu_s = 0;    // CPU of the runtime's threads, not the bench's
  std::uint64_t msgs = 0;      // messages sent
  std::uint64_t nss = 0;       // NewSetStubs sent

  /// Pools another cluster's phase into this one.
  void add(const Phase& o) {
    ops += o.ops;
    batches += o.batches;
    busy_cpu_s += o.busy_cpu_s;
    for (auto [dst, src] : {std::pair{&pause_ms, &o.pause_ms}, {&pause_cpu_ms, &o.pause_cpu_ms},
                            {&mutate_ns, &o.mutate_ns}, {&lgc_ns_per_obj, &o.lgc_ns_per_obj},
                            {&wait_us, &o.wait_us}, {&publish_lag_ms, &o.publish_lag_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    unpublished += o.unpublished;
    stub_changes += o.stub_changes;
    runtime_cpu_s += o.runtime_cpu_s;
    msgs += o.msgs;
    nss += o.nss;
  }
};

ObjectSeq pick(const std::vector<ObjectSeq>& v, Rng& rng) { return v[rng.below(v.size())]; }

/// Plans one batch for process `p` from the mirror (the mirror is updated as
/// ops are planned, except for creations, whose sequence numbers the actor
/// assigns).
std::vector<Op> plan(Cluster& c, ProcessId p, Rng& rng, std::size_t n_ops) {
  Mirror& m = c.mirror;
  std::vector<Op> ops;
  if (m.live_inner[p].empty()) return ops;
  // Every reference the other process exported last batch is installed now,
  // long before its pending scion could expire.
  for (const ExportedRef& er : c.exported[p]) {
    Op op;
    op.kind = Op::kInstall;
    op.a = pick(m.live_inner[p], rng);
    op.ref = er;
    ops.push_back(op);
  }
  c.exported[p].clear();
  // The churn runs on top of the planted heap: objects it creates hang off
  // removable edges and become garbage when cut loose. Creations and
  // removals lean against drift so the churned population stays near 10% of
  // the planted heap.
  const bool below = m.live_all[p].size() < c.objects_per_proc + c.objects_per_proc / 10;
  const double t_add = 0.30, t_remove = below ? 0.50 : 0.70, t_create = 0.85;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const double x = rng.uniform();
    Op op;
    if (x < t_add) {
      op.kind = Op::kAddLocal;
      op.a = pick(m.live_inner[p], rng);
      op.b = pick(m.live_all[p], rng);
      m.at(p, op.a).local.push_back(op.b);
      m.local_holders[p].push_back(op.a);
    } else if (x < t_remove) {
      auto& holders = m.local_holders[p];
      if (holders.empty()) continue;
      const std::size_t h = rng.below(holders.size());
      op.kind = Op::kRemoveLocal;
      op.a = holders[h];
      auto& out = m.at(p, op.a).local;
      if (!m.live[p][op.a] || out.empty()) {
        holders[h] = holders.back();
        holders.pop_back();
        continue;
      }
      const std::size_t k = rng.below(out.size());
      op.b = out[k];
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (x < t_create) {
      op.kind = Op::kCreate;
      op.a = pick(m.live_inner[p], rng);
      op.leaf = rng.chance(kLeafShare);
    } else if (x < 0.90) {
      op.kind = Op::kAddRoot;
      op.a = pick(m.live_all[p], rng);
      if (std::find(m.roots[p].begin(), m.roots[p].end(), op.a) != m.roots[p].end()) continue;
      m.roots[p].push_back(op.a);
    } else if (x < 0.95) {
      const std::size_t fixed = m.fixed_roots[p];
      if (m.roots[p].size() <= fixed) continue;
      op.kind = Op::kRemoveRoot;
      const std::size_t k = fixed + rng.below(m.roots[p].size() - fixed);
      op.a = m.roots[p][k];
      m.roots[p].erase(m.roots[p].begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      auto& holders = m.remote_holders[p];
      if (holders.empty()) continue;
      const std::size_t h = rng.below(holders.size());
      op.kind = Op::kDropRemote;
      op.a = holders[h];
      auto& out = m.at(p, op.a).remote;
      if (!m.live[p][op.a] || out.empty()) {
        holders[h] = holders.back();
        holders.pop_back();
        continue;
      }
      const std::size_t k = rng.below(out.size());
      op.ref.ref = out[k].first;
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies `ops` on the actor; records creations and installs in the mirror.
void apply(Process& proc, std::vector<Op>& ops, Mirror& m) {
  const ProcessId p = proc.id();
  for (Op& op : ops) {
    switch (op.kind) {
      case Op::kAddLocal: proc.add_local_ref(op.a, op.b); break;
      case Op::kRemoveLocal: proc.remove_local_ref(op.a, op.b); break;
      case Op::kCreate: {
        const ObjectSeq s = proc.create_object(kPayload);
        proc.add_local_ref(op.a, s);
        m.at(p, s).leaf = op.leaf;
        m.at(p, op.a).local.push_back(s);
        m.local_holders[p].push_back(op.a);
        break;
      }
      case Op::kAddRoot: proc.add_root(op.a); break;
      case Op::kRemoveRoot: proc.remove_root(op.a); break;
      case Op::kInstall: {
        const RefId r = proc.install_ref(op.a, op.ref);
        m.at(p, op.a).remote.push_back({r, op.ref.target});
        m.remote_holders[p].push_back(op.a);
        break;
      }
      case Op::kDropRemote: proc.remove_remote_ref(op.a, op.ref.ref); break;
    }
  }
}

/// Exports `n` live leaves of `owner` to the other process (installed by the
/// holder's next batch).
void export_leaves(Cluster& c, Process& proc, std::size_t n, Rng& rng) {
  const ProcessId owner = proc.id();
  const ProcessId holder = 1 - owner;
  const auto& leaves = c.mirror.live_leaf[owner];
  for (std::size_t i = 0; i < n && !leaves.empty(); ++i) {
    c.exported[holder].push_back(proc.export_own_object(pick(leaves, rng), holder));
  }
}

/// Contacts whose stub set changed since the last sample on this process.
std::uint64_t stub_set_changes(Cluster& c, Process& proc) {
  std::uint64_t changes = 0;
  auto sets = proc.stubs().live_refs_by_owner();
  for (const auto& [peer, refs] : sets) {
    if (c.last_sets[proc.id()][peer] != refs) ++changes;
  }
  c.last_sets[proc.id()] = std::move(sets);
  return changes;
}

/// What one process's collection closure measured.
struct Collect {
  std::uint64_t requested_ns = 0;
  std::uint64_t published_before = 0;  // summaries published before the request
  double pause_ms = 0;
  double pause_cpu_ms = 0;
  double lgc_ns_per_obj = 0;
  std::uint64_t stub_changes = 0;
};

void batch(Cluster& c, Rng& rng, Tracer* t, Phase& ph) {
  Scope b(t, "phase.batch");
  const std::uint32_t parent = b.id();
  const std::size_t n_ops =
      std::max<std::size_t>(8, static_cast<std::size_t>(kBatchShare * c.objects_per_proc));
  for (ProcessId p = 0; p < 2; ++p) {
    std::vector<Op> ops = plan(c, p, rng, n_ops);
    const std::size_t n_exports = std::max<std::size_t>(1, n_ops / 20);
    const std::uint64_t posted = now_ns();
    c.rt->post_sync(p, [&](Process& proc) {
      Scope hop(t, "rt.actor_hop", 0, parent);
      const std::uint64_t t0 = now_ns();
      const double cpu0 = thread_cpu_s();
      ph.wait_us.push_back(static_cast<double>(t0 - posted) / 1000.0);
      {
        Scope s(t, "rt.mutate", ops.size());
        apply(proc, ops, c.mirror);
      }
      const std::uint64_t t1 = now_ns();
      ph.busy_cpu_s += thread_cpu_s() - cpu0;
      ph.mutate_ns.push_back(static_cast<double>(t1 - t0) /
                             static_cast<double>(std::max<std::size_t>(1, ops.size())));
      export_leaves(c, proc, n_exports, rng);
    });
    ph.ops += ops.size();
  }
  // The processes collect one after the other, each on its own actor
  // thread: one heavy thread at a time, so a pause does not depend on where
  // the host places two concurrent collections. A pause is the actor-blocked
  // time of one run_lgc plus the request_snapshot after it (LGC plus
  // capture, as the mutator on that process feels it), taken as the actor
  // thread's CPU time; the wall-clock pause is kept for context.
  Collect col[2];
  auto collect = [&](Process& proc) {
    Collect& k = col[proc.id()];
    Scope hop(t, "rt.actor_hop", 0, parent);
    const double objs = static_cast<double>(proc.heap().size());
    const std::uint64_t t0 = now_ns();
    const double cpu0 = thread_cpu_s();
    {
      Scope s(t, "lgc.run_lgc", proc.heap().size());
      proc.run_lgc();
    }
    const std::uint64_t t1 = now_ns();
    k.published_before = proc.metrics().summarizations.get();
    {
      Scope s(t, "snapshot.request", proc.heap().size());
      proc.request_snapshot();
    }
    const std::uint64_t t2 = now_ns();
    k.pause_cpu_ms = (thread_cpu_s() - cpu0) * 1000.0;
    k.requested_ns = t1;
    k.pause_ms = static_cast<double>(t2 - t0) / 1e6;
    k.lgc_ns_per_obj = static_cast<double>(t1 - t0) / std::max(1.0, objs);
    k.stub_changes = stub_set_changes(c, proc);
  };
  for (ProcessId p = 0; p < 2; ++p) {
    c.rt->post_sync(p, collect);
    // As in a periodic snapshot tick, the next request comes only after this
    // one published: wait for the process's summary counter to move.
    Scope w(t, "snapshot.await_publish");
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (c.metrics[p]->summarizations.get() <= col[p].published_before &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (c.metrics[p]->summarizations.get() <= col[p].published_before) {
      ++ph.unpublished;
    } else {
      ph.publish_lag_ms.push_back(static_cast<double>(now_ns() - col[p].requested_ns) / 1e6);
    }
  }
  for (const Collect& k : col) {
    ph.pause_ms.push_back(k.pause_ms);
    ph.pause_cpu_ms.push_back(k.pause_cpu_ms);
    ph.lgc_ns_per_obj.push_back(k.lgc_ns_per_obj);
    ph.busy_cpu_s += k.pause_cpu_ms / 1e3;
    ph.stub_changes += k.stub_changes;
  }
  c.mirror.recompute();
  ++ph.batches;
}

std::unique_ptr<Cluster> build(const Options& o, std::uint64_t seed, std::size_t n, int tag) {
  auto c = std::make_unique<Cluster>();
  c->objects_per_proc = n;
  c->store = std::filesystem::path(o.work_dir) /
             ("heap_churn-store-" + std::to_string(seed) + "-" + std::to_string(tag));
  std::filesystem::remove_all(c->store);
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.proc.periodic_collectors_enabled = false;
  cfg.proc.snapshot_dir = c->store.string();
  c->rt = std::make_unique<ThreadedRuntime>(2, cfg);
  Rng rng(seed);
  Mirror& m = c->mirror;
  for (ProcessId p = 0; p < 2; ++p) {
    c->rt->post_sync(p, [&](Process& proc) {
      c->metrics[p] = &proc.metrics();
      std::vector<ObjectSeq> inner;
      for (std::size_t i = 0; i < n; ++i) {
        const ObjectSeq s = proc.create_object(kPayload);
        const bool leaf = i > 0 && rng.chance(kLeafShare);
        m.at(p, s).leaf = leaf;
        if (i == 0) {
          proc.add_root(s);
          m.roots[p].push_back(s);
        } else {
          const ObjectSeq parent = pick(inner, rng);
          proc.add_local_ref(parent, s);
          m.at(p, parent).fixed.push_back(s);
          if (rng.chance(0.01)) {
            proc.add_root(s);
            m.roots[p].push_back(s);
          }
        }
        if (!leaf) inner.push_back(s);
      }
      m.fixed_roots[p] = m.roots[p].size();
    });
  }
  m.recompute();
  // 1% of each heap holds a reference to a leaf of the other process.
  for (ProcessId p = 0; p < 2; ++p) {
    c->rt->post_sync(1 - p, [&](Process& proc) {
      export_leaves(*c, proc, static_cast<std::size_t>(kRemoteShare * n), rng);
    });
    c->rt->post_sync(p, [&](Process& proc) {
      for (const ExportedRef& er : c->exported[p]) {
        const ObjectSeq holder = pick(m.live_inner[p], rng);
        const RefId r = proc.install_ref(holder, er);
        m.at(p, holder).remote.push_back({r, er.target});
        m.remote_holders[p].push_back(holder);
      }
      c->exported[p].clear();
    });
  }
  m.recompute();
  // Warm-up: one full batch and a synchronous snapshot (store directory).
  Phase warm;
  batch(*c, rng, nullptr, warm);
  for (ProcessId p = 0; p < 2; ++p) {
    c->rt->post_sync(p, [](Process& proc) { proc.take_snapshot(); });
  }
  return c;
}

Phase measure(Cluster& c, double seconds, Rng& rng, Tracer* t) {
  Phase ph;
  Scope phase(t, "phase.churn_loop");
  const Metrics before = c.rt->total_metrics();
  const double cpu0 = process_cpu_s() - thread_cpu_s();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) batch(c, rng, t, ph);
  ph.runtime_cpu_s = process_cpu_s() - thread_cpu_s() - cpu0;
  const Metrics after = c.rt->total_metrics();
  ph.msgs = delta(after.messages_sent, before.messages_sent);
  ph.nss = delta(after.new_set_stubs_sent, before.new_set_stubs_sent);
  return ph;
}

/// Collects until the heaps hold exactly the mirror's live set. Counts a
/// missing live object as a safety violation and leftover garbage as a
/// failed operation.
void final_check(Cluster& c, Report& r) {
  // Install the exports still waiting for a batch, so no scion is left
  // pending until its expiry.
  for (ProcessId p = 0; p < 2; ++p) {
    const ObjectSeq core = c.mirror.roots[p].front();
    c.rt->post_sync(p, [&](Process& proc) {
      for (const ExportedRef& er : c.exported[p]) {
        const RefId ref = proc.install_ref(core, er);
        c.mirror.at(p, core).remote.push_back({ref, er.target});
      }
    });
    c.exported[p].clear();
  }
  c.mirror.recompute();
  ++r.attempted;
  bool equal = false;
  for (int round = 0; round < 200 && !equal; ++round) {
    equal = true;
    for (ProcessId p = 0; p < 2; ++p) {
      std::size_t heap_size = 0, missing = 0;
      c.rt->post_sync(p, [&](Process& proc) {
        proc.run_lgc();
        heap_size = proc.heap().size();
        for (ObjectSeq s : c.mirror.live_all[p]) missing += proc.heap().exists(s) ? 0 : 1;
      });
      if (missing > 0) {
        r.correct = false;
        r.notes.push_back("live objects reclaimed on P" + std::to_string(p) + ": " +
                          std::to_string(missing));
        return;
      }
      equal = equal && heap_size == c.mirror.live_all[p].size();
    }
    if (!equal) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!equal) {
    ++r.failed;
    r.notes.push_back("garbage left after the final collections");
  }
}

}  // namespace

Report run_heap_churn(const Options& o, Tracer* t) {
  Report r;
  Rng rng(o.seed * 7919 + 1);
  const std::size_t n = o.tiny ? 1'000 : 10'000;
  const double secs = o.tiny ? 0.3 : o.seconds;
  // Untraced: kClusters clusters, each measured for an equal share of the
  // run and checked, pooled into `ph`. Traced: one cluster, measured
  // untraced for half the run and traced for the other half.
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
      c = build(o, o.seed, n, i);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (o.trace) {
      untraced = measure(*c, secs / 2, rng, nullptr);
      ph = measure(*c, secs / 2, rng, t);
    } else {
      ph.add(measure(*c, secs / clusters, rng, nullptr));
    }
    r.failed += c->rt->total_metrics().snapshot_persist_failures.get();
    final_check(*c, r);
  }
  r.attempted += 2 * (ph.batches + untraced.batches);  // snapshot requests
  r.failed += ph.unpublished + untraced.unpublished;

  const double ops = static_cast<double>(std::max<std::uint64_t>(1, ph.ops));
  const double ops_per_s = ops / ph.busy_cpu_s;
  const double p50 = quantile(ph.pause_cpu_ms, 0.5), p99 = quantile(ph.pause_cpu_ms, 0.99);
  const double msgs = static_cast<double>(ph.msgs);
  if (!o.trace) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("ops_per_s", ops_per_s, "1/s");
    r.e2e("p50_ms", p50, "ms");
    r.e2e("p99_ms", p99, "ms");
    r.e2e("msgs_per_op", msgs / ops, "msgs");
    r.e2e("cpu_ms_per_op", ph.runtime_cpu_s * 1000.0 / ops, "ms");
    r.figure("mutator_ops_per_s", ops_per_s, "1/s");
    r.figure("pause_p50_ms", p50, "ms");
    r.figure("pause_p99_ms", p99, "ms");
    r.figure("pause_wall_p50_ms", quantile(ph.pause_ms, 0.5), "ms");
    r.figure("pause_wall_p99_ms", quantile(ph.pause_ms, 0.99), "ms");
    r.figure("pause_samples", static_cast<double>(ph.pause_ms.size()), "count");
    r.figure("batches", static_cast<double>(ph.batches), "count");
    r.figure("live_objects", static_cast<double>(c->mirror.live_all[0].size() +
                                               c->mirror.live_all[1].size()),
           "count");
  } else {
    const std::string w = "heap_churn";
    r.layer("rt.actor_wait_us", median(ph.wait_us), "us", w);
    r.layer("rt.mutate_ns_per_op", median(ph.mutate_ns), "ns", w);
    r.layer("lgc.run_ns_per_obj", median(ph.lgc_ns_per_obj), "ns/obj", w);
    r.layer("dgc.nss_useful_frac",
            frac(static_cast<double>(ph.stub_changes), static_cast<double>(ph.nss)),
            "frac", w);
    counter_layers(r, c->rt->total_metrics(),
                   2.0 * std::chrono::duration<double>(Clock::now() - c->started).count(), w);
    const double untraced_rate = static_cast<double>(untraced.ops) / untraced.busy_cpu_s;
    r.layer("trace.overhead_pct", frac(untraced_rate - ops_per_s, untraced_rate) * 100.0, "%",
            w);
    r.layer("snapshot.publish_lag_ms", median(ph.publish_lag_ms), "ms", w);

    SuiteInput in;
    in.shape.nss_live = static_cast<std::size_t>(kRemoteShare * static_cast<double>(n));
    in.shape.payload_bytes = kPayload;
    for (ProcessId p = 0; p < 2; ++p) {
      c->rt->post_sync(p, [&](Process& proc) {
        in.heaps.push_back(
            capture_snapshot(proc.id(), proc.now(), proc.heap(), proc.stubs(), proc.scions()));
      });
    }
    c.reset();
    layer_suite(o, t, in, r);
  }
  return r;
}

}  // namespace pb
