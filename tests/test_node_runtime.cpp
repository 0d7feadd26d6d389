// NodeRuntime integration tests: full ADGC Process stacks talking over real
// localhost TCP inside one test binary. Covers acyclic reference-listing
// collection, the deterministic cluster plant, DCDA cycle reclamation
// across sockets, and incarnation recovery through a runtime restart.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "src/rt/node_runtime.h"
#include "src/sim/cluster_plant.h"

namespace adgc {
namespace {

using namespace std::chrono_literals;

RuntimeConfig fast_cfg(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.proc.lgc_period_us = 20'000;
  cfg.proc.snapshot_period_us = 40'000;
  cfg.proc.dcda_scan_period_us = 60'000;
  cfg.proc.candidate_quarantine_us = 30'000;
  cfg.proc.detection_timeout_us = 1'000'000;
  cfg.proc.detection_backoff_cap_us = 500'000;
  cfg.proc.scion_pending_grace_us = 1'000'000;
  return cfg;
}

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

PeerAddr local(std::uint16_t port) { return PeerAddr{"127.0.0.1", port}; }

/// Polls `pred` (executed on the node's loop thread) until true or timeout.
bool eventually(NodeRuntime& node, std::function<bool(Process&)> pred,
                std::chrono::milliseconds timeout = 15'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool ok = false;
    node.post_sync([&](Process& p) { ok = pred(p); });
    if (ok) return true;
    std::this_thread::sleep_for(20ms);
  }
  return false;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("adgc_node_rt_" + std::to_string(::testing::UnitTest::GetInstance()
                                                 ->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(NodeRuntime, AcyclicRemoteReferenceKeepsTargetThenDropCollects) {
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, local(p0)}, {1, local(p1)}};

  NodeRuntime::Options o0;
  o0.pid = 0;
  o0.cfg = fast_cfg(1);
  o0.listen = "127.0.0.1:" + std::to_string(p0);
  o0.peers = peers;
  NodeRuntime::Options o1 = o0;
  o1.pid = 1;
  o1.cfg = fast_cfg(2);
  o1.listen = "127.0.0.1:" + std::to_string(p1);

  NodeRuntime n0(std::move(o0)), n1(std::move(o1));
  n0.start();
  n1.start();

  // Owner (node 1) exports an object to node 0; node 0 roots a holder
  // object carrying the remote reference.
  ObjectSeq target = kNoObject;
  n1.post_sync([&](Process& p) { target = p.create_object(); });
  ExportedRef exported;
  n1.post_sync([&](Process& p) { exported = p.export_own_object(target, 0); });

  ObjectSeq holder = kNoObject;
  n0.post_sync([&](Process& p) {
    holder = p.create_object();
    p.add_root(holder);
    p.install_ref(holder, exported);
  });

  // The remote reference (scion) must keep the target alive across many
  // LGC+NSS rounds.
  std::this_thread::sleep_for(500ms);
  bool alive = false;
  n1.post_sync([&](Process& p) { alive = p.heap().exists(target); });
  EXPECT_TRUE(alive) << "remotely referenced object was over-collected";

  // Dropping the holder root lets node 0's LGC retire the stub; the next
  // NewSetStubs round retires the scion; node 1's LGC frees the target.
  n0.post_sync([&](Process& p) { p.remove_root(holder); });
  EXPECT_TRUE(eventually(n1, [&](Process& p) { return !p.heap().exists(target); }))
      << "acyclic garbage did not get collected across TCP";

  n0.stop();
  n1.stop();
}

TEST(NodeRuntime, PlantedRingIsReclaimedByDcdaAcrossProcesses) {
  constexpr std::size_t kNodes = 3;
  sim::ClusterPlant plant;
  plant.nodes = kNodes;
  plant.objs_per_node = 2;

  std::uint16_t ports[kNodes];
  std::map<ProcessId, PeerAddr> peers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ports[i] = reserve_port();
    peers[static_cast<ProcessId>(i)] = local(ports[i]);
  }
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeRuntime::Options o;
    o.pid = static_cast<ProcessId>(i);
    o.cfg = fast_cfg(10 + i);
    o.listen = "127.0.0.1:" + std::to_string(ports[i]);
    o.peers = peers;
    nodes.push_back(std::make_unique<NodeRuntime>(std::move(o)));
    nodes.back()->start();
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const ProcessId pid = static_cast<ProcessId>(i);
    nodes[i]->post_sync([&](Process& p) { plant.plant_local(p, pid); });
  }

  // Rooted ring: nothing may be collected while the anchor pins it.
  std::this_thread::sleep_for(600ms);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes[i]->post_sync([&](Process& p) {
      EXPECT_EQ(plant.chain_live(p), plant.objs_per_node) << "node " << i;
      EXPECT_TRUE(plant.sentinel_live(p)) << "node " << i;
    });
  }

  // Cut the anchor: the ring is now a cross-process garbage cycle that only
  // DCDA can find.
  nodes[0]->post_sync([&](Process& p) { plant.drop_anchor_root(p); });
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_TRUE(eventually(*nodes[i],
                           [&](Process& p) { return plant.chain_live(p) == 0; },
                           30'000ms))
        << "node " << i << " still holds its slice of the garbage ring";
    nodes[i]->post_sync(
        [&](Process& p) { EXPECT_TRUE(plant.sentinel_live(p)) << "node " << i; });
  }
  for (auto& n : nodes) n->stop();
}

TEST(NodeRuntime, IncarnationBumpsAcrossRestartsAndRecoversState) {
  TempDir dir;
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, local(p0)}, {1, local(p1)}};

  auto opts = [&](ProcessId pid, std::uint16_t port) {
    NodeRuntime::Options o;
    o.pid = pid;
    o.cfg = fast_cfg(20 + pid);
    o.listen = "127.0.0.1:" + std::to_string(port);
    o.peers = peers;
    o.state_dir = (dir.path / ("node" + std::to_string(pid))).string();
    return o;
  };

  NodeRuntime peer(opts(0, p0));
  peer.start();
  EXPECT_EQ(peer.incarnation(), 0u);

  ObjectSeq kept = kNoObject;
  {
    NodeRuntime n(opts(1, p1));
    n.start();
    EXPECT_EQ(n.incarnation(), 0u);
    EXPECT_FALSE(n.recovered());
    std::uint64_t published = 0;
    n.post_sync([&](Process& p) {
      kept = p.create_object();
      p.add_root(kept);
      published = p.metrics().summarizations.get();
    });
    // Wait until a snapshot captured after `kept` is in the store. The
    // pipeline publishes a summary only after writing it, and at most one
    // capture (possibly older than `kept`) was in flight above.
    EXPECT_TRUE(eventually(n, [&](Process& p) {
      return p.metrics().summarizations.get() >= published + 2;
    }));
    n.stop();
  }
  {
    // Same state_dir: the next life must come back under a higher
    // incarnation and resurrect the rooted object from the snapshot.
    NodeRuntime n(opts(1, p1));
    n.start();
    EXPECT_GE(n.incarnation(), 1u);
    EXPECT_TRUE(n.recovered());
    bool alive = false;
    n.post_sync([&](Process& p) { alive = p.heap().exists(kept); });
    EXPECT_TRUE(alive) << "rooted object lost across restart";

    // The peer learns the new incarnation from the hello exchange of any
    // connection. Force one by sending the restarted node a frame.
    Envelope poke;
    poke.src = 0;
    poke.dst = 1;
    poke.src_inc = peer.incarnation();
    poke.dst_inc = kUnknownIncarnation;
    poke.bytes = encode_message(MessagePayload{ReplyMsg{}});
    peer.transport().send(poke);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (peer.transport().last_known_incarnation(1) == kUnknownIncarnation ||
           peer.transport().last_known_incarnation(1) < n.incarnation()) {
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(20ms);
    }
    EXPECT_EQ(peer.transport().last_known_incarnation(1), n.incarnation());
    n.stop();
  }
  peer.stop();
}

}  // namespace
}  // namespace adgc
