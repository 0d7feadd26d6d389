// Real-socket transport: length-prefixed frames over nonblocking TCP.
//
// One TcpTransport per OS process (per ADGC node). It owns:
//   * a nonblocking listening socket,
//   * one outbound connection per peer, established on demand the first
//     time a message is queued toward that peer, re-established after
//     failures under the equal-jitter exponential backoff from PR 2,
//   * any number of inbound connections (peers connecting to us),
//   * a single IO thread running a poll(2) event loop over all of them.
//
// Identity is carried in-band: the first frame on every connection, in both
// directions, is a hello announcing (ProcessId, incarnation). That is how a
// node learns its peers' current incarnations — the runtime stamps outgoing
// envelopes with them and drops inbound envelopes whose stamps are stale,
// exactly as the in-memory runtimes do with their omniscient membership
// tables. An incarnation increase observed in a hello IS the crash
// notification of the real-network fault model (see docs/DEPLOY.md).
//
// Write queues are the one place that sheds traffic, by priority: when the
// queue toward a peer exceeds its bound (connection down or receiver slow),
// CDMs are dropped first, then NewSetStubs at twice the bound; invocations,
// replies and AddScion handshake traffic are never shed. Both shed kinds
// are loss-tolerant by protocol design, so shedding degrades collection
// latency, never safety.
//
// Delivery and peer events are invoked on the IO thread; the NodeRuntime
// bridges them onto the process's single logical thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/obs/admin_http.h"

namespace adgc {

/// "host:port" endpoint of one node.
struct PeerAddr {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port"; throws std::invalid_argument on malformed input.
/// `allow_port_zero` admits ":0" — meaningful only for bind addresses
/// (kernel-assigned listen/admin ports), never for a peer map entry.
PeerAddr parse_peer_addr(const std::string& s, bool allow_port_zero = false);

class TcpTransport {
 public:
  struct Options {
    ProcessId self = 0;
    Incarnation incarnation = 0;
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0;  // 0 = kernel-assigned; see port()
    /// Static address map: every peer this node may talk to.
    std::map<ProcessId, PeerAddr> peers;
    /// Per-peer write-queue bound (frames) before priority shedding starts.
    std::size_t peer_queue_limit = 512;
    /// Reconnect backoff series (equal jitter, like every retry in PR 2).
    SimTime reconnect_base_us = 50'000;
    SimTime reconnect_cap_us = 2'000'000;
    std::uint64_t seed = 1;
    /// Admin HTTP endpoint (/metrics, /healthz, /tracez), folded into the
    /// same poll loop as the data sockets. Off unless enabled; a port of 0
    /// binds kernel-assigned (see admin_port()).
    bool admin_enabled = false;
    std::string admin_host = "127.0.0.1";
    std::uint16_t admin_port = 0;
  };

  /// Called on the IO thread for every inbound data frame.
  using DeliverFn = std::function<void(Envelope&&)>;
  /// Called on the IO thread when a hello reveals a NEW (higher) incarnation
  /// for a peer that was previously known under a lower one — i.e. the peer
  /// crashed and restarted since we last heard from it.
  using PeerRestartFn = std::function<void(ProcessId peer, Incarnation inc)>;
  /// Called on the IO thread when an outbound connect attempt toward a peer
  /// fails (immediately, or asynchronously on a still-connecting socket).
  /// Feeds failure-count suspicion: a SIGKILLed peer whose host refuses our
  /// connections accrues suspicion even though no request/reply traffic is
  /// in flight toward it.
  using ConnectFailedFn = std::function<void(ProcessId peer)>;

  TcpTransport(Options opts, Metrics& metrics);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_peer_restart(PeerRestartFn fn) { peer_restart_ = std::move(fn); }
  void set_connect_failed(ConnectFailedFn fn) { connect_failed_ = std::move(fn); }
  /// Content handler for admin requests; runs on the IO thread, so it must
  /// only touch thread-safe state. Install before start().
  void set_admin_handler(obs::AdminHandler fn) { admin_handler_ = std::move(fn); }

  /// Binds + listens + spawns the IO thread. Throws std::runtime_error when
  /// the listen address is unusable.
  void start();

  /// Stops the IO thread, first spending up to `drain_us` flushing queued
  /// writes (the SIGTERM clean-drain path). Idempotent.
  void stop(SimTime drain_us = 200'000);

  /// Queues an envelope toward env.dst. Thread-safe. Messages to unknown
  /// peers or to self are dropped (counted).
  void send(Envelope env);

  /// Severs every connection to `peer` and discards all frames queued toward
  /// it, plus its reconnect/backoff state — the transport-level half of peer
  /// eviction. Thread-safe, applied asynchronously on the IO thread. A later
  /// send() toward the peer starts from a clean slate (readmission path).
  void drop_peer(ProcessId peer);

  /// Actual listening port (resolves a requested port of 0).
  std::uint16_t port() const { return port_; }

  /// Actual admin endpoint port; 0 when the endpoint is disabled.
  std::uint16_t admin_port() const { return admin_port_; }

  /// Last incarnation announced by `peer` in a hello, or kUnknownIncarnation
  /// when we never heard from it. Thread-safe.
  Incarnation last_known_incarnation(ProcessId peer) const;

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Conn {
    int fd = -1;
    ProcessId peer = kNoProcess;   // kNoProcess until the hello arrives (inbound)
    bool outbound = false;
    bool connecting = false;       // nonblocking connect() in flight
    FrameDecoder decoder;
    std::deque<std::vector<std::byte>> writeq;  // encoded frames
    std::size_t write_off = 0;                  // offset into writeq.front()
  };

  /// Per-peer outbound state: the connection (if any), frames waiting for
  /// one, and the reconnect backoff series.
  struct PeerState {
    Conn* conn = nullptr;
    std::deque<std::vector<std::byte>> pending;  // encoded frames, no conn yet
    std::size_t pending_sheddable = 0;           // CDM/NSS frames among pending
    int attempts = 0;                            // consecutive failed connects
    SimTime next_connect_us = 0;                 // backoff deadline (steady clock)
  };

  /// One admin HTTP connection: buffer the request head, hand it to the
  /// handler, stream the response out, close. Strictly nonblocking; a slow
  /// or malicious client can only stall its own connection.
  struct AdminConn {
    int fd = -1;
    std::string in;            // request bytes until the head parses
    std::string out;           // serialized response
    std::size_t out_off = 0;
    bool responding = false;   // request parsed; draining `out`
  };

  void io_loop();
  void wake();
  SimTime steady_now() const;

  void admin_accept_ready();
  void admin_readable(AdminConn* conn);
  void admin_writable(AdminConn* conn);
  void close_admin(AdminConn* conn);

  void start_connect(ProcessId peer, SimTime now);
  void on_connect_ready(Conn* conn);
  void on_readable(Conn* conn);
  void on_writable(Conn* conn);
  void close_conn(Conn* conn, const char* why);
  void accept_ready();
  void drain_sends();
  void apply_drops();
  void enqueue_frame(PeerState& ps, std::vector<std::byte> frame,
                     std::uint8_t msg_tag);
  void flush_pending_into_conn(ProcessId peer);

  Options opts_;
  Metrics& metrics_;
  DeliverFn deliver_;
  PeerRestartFn peer_restart_;
  ConnectFailedFn connect_failed_;
  obs::AdminHandler admin_handler_;
  Rng rng_;

  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
  std::vector<std::unique_ptr<AdminConn>> admin_conns_;  // IO thread only

  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<SimTime> drain_us_{0};

  std::mutex send_mu_;
  std::vector<Envelope> send_inbox_;   // handed to the IO thread via wake()
  std::vector<ProcessId> drop_inbox_;  // peers to sever; guarded by send_mu_

  std::map<ProcessId, PeerState> peer_state_;          // IO thread only
  std::vector<std::unique_ptr<Conn>> conns_;           // IO thread only
  mutable std::mutex inc_mu_;
  std::map<ProcessId, Incarnation> peer_incarnation_;  // guarded by inc_mu_
};

}  // namespace adgc
