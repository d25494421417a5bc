// Real inter-process networking: a TCP transport for the node daemons.
//
// The paper's implementation architecture (section 5) makes nodes OS
// processes, each with a communication daemon (TyCOd) multiplexing one
// socket per peer node. This module is that socket layer:
//
//   * length-prefixed framing over nonblocking sockets — a frame is
//     [len u32][kind u8][body]; kData bodies carry a daemon packet
//     (net/packet.hpp), whose header is parsed once on arrival and whose
//     payload is opaque here, so SHIPM/SHIPO/FETCH/REL, the trace flags
//     and GC credit cross process boundaries verbatim;
//   * a poll()-based I/O loop thread owning every socket, which hands
//     each arriving site packet to the node's receiver (straight into
//     the site's inbox) and queues only daemon frames;
//   * per-peer outbound queues with byte-bounded backpressure
//     (`send` blocks once a peer's queue exceeds max_queue_bytes);
//   * connection establishment on first send and reconnect with
//     exponential backoff + jitter;
//   * periodic heartbeats feeding a per-peer phi-accrual failure
//     detector (net/failure.hpp): a sustained phi breach becomes a
//     confirmed-dead verdict, the peer's queued frames are dropped, and
//     a caller-supplied death frame is injected into the local inbox so
//     the node can write off the dead holder's GC credit.
//
// Connections are asymmetric: each side writes data on its *own*
// outbound connection and only reads from accepted ones (plus heartbeat
// ACKs flowing back on the connection that carried the heartbeat). This
// removes the simultaneous-connect dedup problem entirely at the cost
// of two sockets per live pair — the paper's daemons pay the same.
//
// Security: frames are neither authenticated nor encrypted. Bind to
// loopback (the default) unless the network is trusted; see
// docs/NETWORKING.md.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/bufpool.hpp"
#include "net/failure.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dityco::net {

// -- framing ----------------------------------------------------------

/// Wire frame kinds (the u8 after the length prefix).
enum class FrameKind : std::uint8_t {
  kHello = 1,      // [node u32][listen_port u16][monitor_port u16] —
                   // identity + reach-back + TyCOmon port (0 = none)
  kData = 2,       // [src u32][dst u32][daemon packet bytes]
  kHeartbeat = 3,  // [node u32][seq u64][send_us u64]
  kHeartbeatAck = 4,  // echo of a heartbeat body
  kPeers = 5,      // [n u32] x ([node u32][host:port str][monitor u16]) —
                   // address + monitor-port gossip — then an additive
                   // trailing block [dead_n u32][node u32 ...]: node ids
                   // some member has confirmed dead (advisory death
                   // gossip; old receivers ignore the tail)
};

/// Frames larger than this are a protocol error (guards the length
/// prefix against allocation bombs from a confused or hostile peer).
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Prefix `payload` (kind byte + body, as produced by the transport)
/// with its u32 little-endian length.
std::vector<std::uint8_t> encode_frame(const std::vector<std::uint8_t>& payload);

/// Incremental decoder for the length-prefixed stream. Feed arbitrary
/// byte slices (partial frames, many frames at once — TCP has no message
/// boundaries); complete payloads come out in order.
class FrameParser {
 public:
  /// Zero-copy dispatch: `sink(payload, len)` is invoked once per
  /// complete frame, in order. Whole frames inside `data` are handed
  /// out in place; only a partial tail (or a frame spanning feeds) is
  /// stashed and completed from later input. The sink returns false to
  /// abort (its payload was malformed — the connection must drop).
  /// feed() returns false once the stream is poisoned (zero-length or
  /// oversized frame, error() set) or the sink aborted.
  template <class Sink>
  bool feed(const std::uint8_t* data, std::size_t n, Sink&& sink) {
    if (error_) return false;
    std::size_t off = 0;
    // First complete the stashed partial frame, header then body.
    while (!buf_.empty() && off < n) {
      if (buf_.size() < 4) {
        const std::size_t take =
            std::min<std::size_t>(4 - buf_.size(), n - off);
        buf_.insert(buf_.end(), data + off, data + off + take);
        off += take;
        if (buf_.size() < 4) return true;  // header still split
      }
      std::uint32_t len;
      std::memcpy(&len, buf_.data(), 4);
      if (len == 0 || len > kMaxFrameBytes) {
        error_ = true;
        buf_.clear();
        return false;
      }
      const std::size_t need = 4 + static_cast<std::size_t>(len) - buf_.size();
      const std::size_t take = std::min(need, n - off);
      buf_.insert(buf_.end(), data + off, data + off + take);
      off += take;
      if (take < need) return true;  // frame still incomplete
      if (!sink(buf_.data() + 4, static_cast<std::size_t>(len))) {
        buf_.clear();
        return false;
      }
      buf_.clear();
    }
    // Whole frames inside `data` dispatch in place — no copy, many
    // frames per socket read (the read-side half of batching).
    while (n - off >= 4) {
      std::uint32_t len;
      std::memcpy(&len, data + off, 4);
      if (len == 0 || len > kMaxFrameBytes) {
        error_ = true;
        buf_.clear();
        return false;
      }
      if (n - off < 4 + static_cast<std::size_t>(len)) break;
      if (!sink(data + off + 4, static_cast<std::size_t>(len))) return false;
      off += 4 + len;
    }
    if (off < n) buf_.assign(data + off, data + n);  // stash the tail
    return true;
  }

  /// Copying variant (tests, tools): complete payloads appended to
  /// `out`. Returns false once the stream is poisoned.
  bool feed(const std::uint8_t* data, std::size_t n,
            std::vector<std::vector<std::uint8_t>>& out);
  bool error() const { return error_; }
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;  // partial tail only
  bool error_ = false;
};

/// Split "host:port"; throws std::invalid_argument on malformed input.
std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s);

// -- coalesced outbound queues ----------------------------------------
//
// A peer's outbound queue is a deque of pooled whole-frame buffers plus
// `wr_off`, the bytes of the head frame already written to the socket.
// Invariant: the queue always starts at a frame boundary and wr_off
// stays inside the head frame — a disconnect rewinds wr_off to 0 and
// the next connection retransmits the head frame whole (after the
// hello), never a dangling tail that would poison the receiver's
// framing. gather/consume below are the two halves of a writev() flush
// and are pure over (queue, wr_off), so tests can drive them directly.

/// Largest scatter-gather batch per writev() call.
constexpr std::size_t kIovMax = 64;

/// Fill `iov[0..iov_max)` from the frame queue starting `wr_off` bytes
/// into the head frame. At least one entry is produced for a non-empty
/// queue; gathering stops once `flush_frames` frames or `flush_bytes`
/// bytes are covered (flush_frames = 1 degenerates to one write per
/// frame — coalescing off). Returns the iovec count.
std::size_t gather_frames(const std::deque<BufPtr>& q, std::size_t wr_off,
                          std::size_t flush_bytes, std::size_t flush_frames,
                          struct iovec* iov, std::size_t iov_max);

/// Account `n` freshly-written bytes: advance `wr_off`, releasing each
/// fully-written head frame back to `pool` and popping it. Preserves
/// the frame-alignment invariant above (wr_off ends inside — or at the
/// start of — the new head frame).
void consume_written(std::deque<BufPtr>& q, std::size_t& wr_off,
                     std::size_t n, BufferPool& pool);

// -- transport --------------------------------------------------------

struct TcpConfig {
  /// This process's node id (Packet.src_node of everything we send).
  std::uint32_t self = 0;
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0 = ephemeral (read back via port())
  /// Reach-back host gossiped to peers (kPeers frames). Empty = derive
  /// from listen_host; a wildcard bind (0.0.0.0 / ::) falls back to
  /// 127.0.0.1, so non-loopback deployments that bind the wildcard must
  /// set this to a routable address.
  std::string advertise_host;
  /// Known peer addresses, node id -> "host:port". Peers may also be
  /// learned later from hello/gossip frames (the --join bootstrap).
  std::map<std::uint32_t, std::string> peers;

  // Reconnect policy: first retry after backoff_min_ms, doubling to
  // backoff_max_ms, each wait stretched by up to 50% random jitter so
  // restarted clusters do not reconnect in lockstep.
  std::uint64_t backoff_min_ms = 20;
  std::uint64_t backoff_max_ms = 2000;

  /// Per-peer outbound queue bound in bytes; send() blocks (backpressure)
  /// while a peer's queue is over it.
  std::size_t max_queue_bytes = 8u << 20;
  /// Longest a send() may park in backpressure before the frame is
  /// dropped instead (counted in send_timeouts + frames_dropped); 0 =
  /// wait forever. Guards executor threads against wedging on a peer
  /// whose queue never drains.
  std::uint64_t send_timeout_ms = 30'000;
  /// A peer that has demand (queued frames) but has never completed a
  /// connection — and never spoke to us inbound — is declared dead after
  /// this long, releasing blocked senders and triggering the same
  /// write-off path as a heartbeat death. The phi detector cannot cover
  /// this case (phi is 0 until a first arrival), so without it a wrong
  /// or unreachable address wedges senders forever. 0 = disabled; only
  /// active when detect_failures is set.
  std::uint64_t connect_deadline_ms = 10'000;

  // Liveness. Heartbeats are only load-bearing on idle links: *any*
  // frame from a peer feeds its detector, so a link saturated with data
  // never needs them to stay alive.
  std::uint64_t heartbeat_ms = 100;
  bool detect_failures = true;
  /// Suspect a peer at phi > threshold (6 ≈ "one-in-a-million that it's
  /// merely late" under the exponential model), confirm dead after the
  /// breach persists for confirm_ms.
  double phi_threshold = 6.0;
  std::uint64_t confirm_ms = 500;
  PhiAccrualDetector::Options phi;

  // Wire-path batching (docs/NETWORKING.md "Wire-path throughput").
  /// One flush gathers up to `flush_frames` whole frames — and roughly
  /// `flush_bytes` bytes — into a single writev(). flush_frames = 1
  /// disables coalescing (one write per frame, the pre-batching wire
  /// behaviour; the benches' "nocoalesce" sections run this way).
  std::size_t flush_bytes = 256u << 10;
  std::size_t flush_frames = 64;

  /// Set by tycod, whose network spans OS processes; the Network then
  /// builds one single-node TcpTransport instead of an in-process
  /// loopback mesh.
  bool multiprocess = false;

  /// This node's TyCOmon HTTP port, gossiped to peers (kHello/kPeers) so
  /// a fleet aggregator can discover every node's monitor from one seed
  /// (/peers). 0 = no monitor; update late with set_monitor_port().
  std::uint16_t monitor_port = 0;
};

class TcpTransport : public Transport {
 public:
  /// Counters for the observability layer; all atomic, safe to scrape
  /// from any thread while the I/O loop runs.
  struct Stats {
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> heartbeats_sent{0};
    std::atomic<std::uint64_t> heartbeats_acked{0};
    std::atomic<std::uint64_t> backpressure_waits{0};
    std::atomic<std::uint64_t> frames_dropped{0};  // to dead peers
    std::atomic<std::uint64_t> send_timeouts{0};   // backpressure gave up
    std::atomic<std::uint64_t> frames_filtered{0}; // eaten by a drop filter
    std::atomic<std::uint64_t> frames_malformed{0};  // undecodable bodies
    std::atomic<std::uint64_t> peers_suspected{0};
    std::atomic<std::uint64_t> peers_dead{0};
    /// Coalescing: flush calls (write/writev) and the frames they
    /// covered — frames/call is the realised batch factor.
    std::atomic<std::uint64_t> writev_calls{0};
    std::atomic<std::uint64_t> writev_frames{0};
    /// Last heartbeat round trip, microseconds (any peer).
    std::atomic<std::uint64_t> last_rtt_us{0};
    /// Path telemetry (lock-free histograms; safe to snapshot any time):
    /// heartbeat round trips across all peers, the outbound queue depth
    /// seen by each send(), and the backoff picked by each failed
    /// connect — the three distributions that explain where cross-node
    /// latency went (docs/OBSERVABILITY.md).
    obs::Histogram rtt_us;
    obs::Histogram send_queue_bytes;
    obs::Histogram reconnect_backoff_ms;
    /// Frames per flush (1 = no batching opportunity or coalescing off).
    obs::Histogram flush_frames_per_call;
  };

  /// One peer's transport state, snapshotted under the lock — the
  /// source for TyCOmon's /peers endpoint, the /healthz peer block and
  /// the per-peer metric labels.
  struct PeerInfo {
    std::uint32_t node = 0;
    std::string hostport;             // empty until learned
    std::uint16_t monitor_port = 0;   // peer's TyCOmon port (0 = unknown)
    bool connected = false;
    bool connecting = false;
    bool suspected = false;
    bool dead = false;
    double phi = 0;                   // failure-detector suspicion, now
    double last_heard_age_ms = -1;    // since any frame from the peer
    std::uint64_t queue_bytes = 0;    // outbound bytes not yet written
    std::uint64_t queued_frames = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t backoff_ms = 0;     // current reconnect backoff
    std::uint64_t last_rtt_us = 0;    // last heartbeat round trip
    obs::Histogram::Snapshot rtt_us;  // per-peer heartbeat RTTs
  };

  /// Binds the listen socket (synchronously, so port() is valid on
  /// return) and starts the I/O loop thread. Throws std::runtime_error
  /// when the bind fails.
  explicit TcpTransport(TcpConfig cfg);
  ~TcpTransport() override;

  // Transport interface. `now_us` is ignored: a real transport runs on
  // the wall clock (see the contract note in transport.hpp).
  void send(Packet p, double now_us) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override;
  std::uint64_t bytes_sent() const override {
    return bytes_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_sent() const override {
    return packets_out_.load(std::memory_order_relaxed);
  }
  void shutdown() override;
  bool remote() const override { return cfg_.multiprocess; }
  void set_receiver(std::uint32_t node, Receiver* r) override;
  std::size_t attach_work(WorkCount* w) override;
  /// send() without work accounting: queue (or loop back) the packet
  /// and return false when it was dropped instead — filtered, dead
  /// peer, send timeout or shutdown. The mesh accounts drops itself.
  bool post(Packet p);

  std::uint16_t port() const { return port_; }
  /// The packet-buffer pool behind encode/enqueue/read (tcp_pool_*
  /// metrics and the /peers pool block). Thread-safe snapshot.
  BufferPool::StatsSnapshot pool_stats() const { return pool_.stats(); }
  BufferPool& pool() { return pool_; }
  /// The reach-back address gossiped to peers: advertise_host (or
  /// listen_host, with wildcard binds resolved to loopback) + port().
  std::string advertised_hostport() const;
  const TcpConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  /// Register (or update) a peer's address. Thread-safe.
  void add_peer(std::uint32_t node, const std::string& hostport);
  /// Peers currently holding an established outbound connection.
  std::size_t connected_peers() const;
  /// Sum of queued outbound bytes across peers (gauge).
  std::size_t queued_bytes() const;
  bool peer_dead(std::uint32_t node) const;
  std::vector<std::uint32_t> dead_peers() const;
  /// Advisory death gossip: node ids *some* fleet member has confirmed
  /// dead, learned from kPeers frames (plus our own confirmations).
  /// Consumers (the sharded name service's shard map) treat these as
  /// membership advisories — they move shard ownership but never drive
  /// GC credit write-off, which waits for the local detector's own
  /// verdict. Generation bumps on every change so pollers can skip
  /// rework; read it before the set (acquire pairs with the set's
  /// release under mu_).
  std::uint64_t advisory_dead_generation() const {
    return advisory_gen_.load(std::memory_order_acquire);
  }
  std::vector<std::uint32_t> advisory_dead() const;
  /// Every known peer's transport state (see PeerInfo). Thread-safe;
  /// phi/ages are evaluated against the call's clock.
  std::vector<PeerInfo> peer_info() const;

  /// Publish (or change) this node's TyCOmon port: updates the config
  /// and gossips the new value to every connected peer. Thread-safe.
  void set_monitor_port(std::uint16_t port);

  /// Record socket-level trace events (tcp-send on the sending thread,
  /// tcp-recv as a packet arrives, tcp-reconnect/tcp-peer-dead from the
  /// I/O loop) into a
  /// transport-owned ring. All record sites hold mu_, so the ring's
  /// single-producer contract holds even though two threads record.
  /// Sampling mirrors the wire bit (the sampled flag of the packet's
  /// parsed header), so a sampled operation is captured at the socket
  /// hop too.
  void enable_trace(std::size_t capacity, std::uint64_t sample_every = 1,
                    std::uint64_t sample_seed = 0);
  /// Tail-retention support: record every traced hop regardless of the
  /// wire sampling bit (obs/flight.hpp).
  void set_trace_record_all(bool on);
  const obs::TraceRing& trace_ring() const { return ring_; }

  /// SLO plane stage hooks (obs/slo.hpp): called with mu_ held at the
  /// same points as the kTcpSend/kTcpRecv ring records — outbound=true
  /// when a frame is queued for (or looped back past) a socket,
  /// outbound=false when an inbound packet arrives. Fires
  /// for every traced packet regardless of the wire sampling bit (the
  /// ledger needs every request, like the flight recorder). The hook
  /// must be cheap and must not call back into the transport.
  void set_slo_hook(
      std::function<void(std::uint64_t trace_id, bool outbound,
                         std::uint64_t now_ns)>
          f) {
    std::lock_guard<std::mutex> lk(mu_);
    slo_hook_ = std::move(f);
  }

  /// Path events worth promoting into a flight recorder.
  enum class PeerEvent : std::uint8_t { kReconnect, kDead };
  /// Called (with mu_ held — must not call back into the transport)
  /// right after a reconnect or a confirmed peer death is recorded; the
  /// trace id is the fresh id stamped on the ring event, so the hook can
  /// promote exactly that event out of the ring.
  void set_peer_event_hook(
      std::function<void(PeerEvent, std::uint32_t, std::uint64_t)> f) {
    std::lock_guard<std::mutex> lk(mu_);
    peer_event_hook_ = std::move(f);
  }

  /// Factory for the synthetic packet injected into the local inbox when
  /// a peer is confirmed dead (the node routes it like any delivery, so
  /// GC write-off runs on an executor thread, not the I/O thread). `f`
  /// returns the frame, which must carry a valid header; the packet's
  /// src_node is the dead peer. Set before traffic starts.
  void set_death_frame(
      std::function<std::vector<std::uint8_t>(std::uint32_t)> f) {
    std::lock_guard<std::mutex> lk(mu_);
    death_frame_ = std::move(f);
  }

  /// Fault injection, mirroring InProcTransport::set_drop_filter: a
  /// packet for which `f` returns true is silently eaten at send time
  /// (counted in frames_filtered) — it never reaches a socket, exactly
  /// like a lossy wire. The filter runs under the transport mutex, so it
  /// must be cheap and must not call back into the transport. Used by
  /// tycod --drop-rel and the GC-heal tests; pass nullptr to clear.
  void set_drop_filter(std::function<bool(const Packet&)> f) {
    std::lock_guard<std::mutex> lk(mu_);
    drop_filter_ = std::move(f);
  }
  std::uint64_t filtered() const {
    return stats_.frames_filtered.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    std::string hostport;  // empty until learned
    int fd = -1;           // our outbound connection
    bool connecting = false;
    bool hello_sent = false;
    FrameParser parser;    // ACKs flowing back on the outbound conn
    /// Whole pooled frames queued for the socket, oldest first, drained
    /// by coalesced writev() flushes (gather_frames/consume_written).
    std::deque<BufPtr> outq;
    std::size_t out_bytes = 0;  // total bytes across outq
    /// Bytes of the head frame already written to the socket.
    /// Invariant (consume_written): the queue always starts at a frame
    /// boundary and wr_off stays inside the head frame, so a disconnect
    /// rewinds wr_off to 0 and resends that frame whole.
    std::size_t wr_off = 0;
    std::size_t queued_frames = 0;  // data frames inside outq
    /// When demand first appeared while never connected (-1 = none);
    /// drives connect_deadline_ms.
    double demand_since_ms = -1;
    double next_connect_ms = 0;
    std::uint64_t backoff_ms = 0;
    bool ever_connected = false;
    // Liveness.
    PhiAccrualDetector detector;
    double suspect_since_ms = -1;
    bool dead = false;
    std::uint64_t hb_seq = 0;
    double next_hb_ms = 0;
    // Path telemetry (peer_info / per-peer metrics).
    std::uint64_t reconnects = 0;
    std::uint64_t last_rtt_us = 0;
    double last_heard_ms = -1;       // transport clock, -1 = never
    std::uint16_t monitor_port = 0;  // learned from hello/gossip
    obs::Histogram rtt_hist;
  };
  struct Inbound {
    FrameParser parser;
    std::uint32_t node = kUnknownNode;
    std::string outbuf;  // heartbeat ACKs only
  };

  static constexpr std::uint32_t kUnknownNode = 0xffffffffu;

  void io_loop();
  // All helpers below run on the I/O thread with mu_ held.
  void start_connect(std::uint32_t node, Peer& p, double now_ms);
  void finish_connect(std::uint32_t node, Peer& p, double now_ms);
  void fail_connect(std::uint32_t node, Peer& p, double now_ms);
  /// Returns false when the payload is undecodable (truncated body): a
  /// malformed frame is a protocol error and the connection carrying it
  /// must be dropped, exactly like a framing error.
  bool handle_payload(int fd, std::uint32_t tagged_node,
                      const std::uint8_t* payload, std::size_t len,
                      double now_ms);
  void feed_liveness(std::uint32_t node, double now_ms);
  void check_liveness(double now_ms);
  void mark_dead(std::uint32_t node, Peer& p);
  void flush_writes(int fd, std::string& buf);
  void flush_peer_writes(Peer& p);
  void queue_frame(Peer& p, FrameKind kind,
                   const std::vector<std::uint8_t>& body);
  void broadcast_peers_locked();
  /// shutdown()'s two halves: stop (and join) the I/O thread, then
  /// close every socket; with `reset`, connections close abortively
  /// (SO_LINGER {1, 0}). Each is idempotent.
  void stop_io();
  void close_sockets(bool reset);
  double now_ms() const;
  std::uint64_t now_us() const;
  /// A packet for this node came off a socket (or looped back): offer
  /// it to the receiver, else queue it for the daemon. `fresh` as in
  /// Receiver::deliver. Takes it out of the mesh's transit count.
  void arrive(Packet p, bool fresh);
  /// Packets that reached this node and wait in its daemon queue or,
  /// with `sites`, in its site inboxes too.
  std::size_t arrived(bool sites) const;

  friend class TcpMeshTransport;

  TcpConfig cfg_;
  int listen_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  // self-pipe: send() pokes the loop
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable backpressure_cv_;
  std::map<std::uint32_t, Peer> peers_;
  /// Fleet-wide confirmed deaths (ours + gossiped); grow-only, under mu_.
  std::set<std::uint32_t> advisory_dead_;
  std::atomic<std::uint64_t> advisory_gen_{0};
  std::map<int, Inbound> inbound_;
  std::deque<Packet> inbox_;
  // inbox_.size(), written under mu_ and read without it, so that
  // recv() on an empty daemon queue does not contend with the I/O
  // thread for mu_.
  std::atomic<std::size_t> queued_{0};
  std::function<std::vector<std::uint8_t>(std::uint32_t)> death_frame_;
  std::function<void(PeerEvent, std::uint32_t, std::uint64_t)>
      peer_event_hook_;
  std::function<void(std::uint64_t, bool, std::uint64_t)> slo_hook_;
  std::function<bool(const Packet&)> drop_filter_;
  Receiver* receiver_ = nullptr;  // this node's; called under mu_
  // A mesh part: the mesh's count of packets in socket transit, which
  // drops as arrive() queues the packet, inside the queue's critical
  // section (a site inbox's or, for the daemon, mu_). Set under mu_.
  std::atomic<std::size_t>* transit_ = nullptr;
  // Attached under mu_ so the attach and the inbox count agree; loaded
  // without it on the send path.
  std::atomic<WorkCount*> work_{nullptr};
  obs::TraceRing ring_;  // all record sites hold mu_ (single producer)
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  // jitter; I/O thread only
  /// Packet-buffer recycling for encode/enqueue/read (own lock; safe
  /// for executor threads to acquire while the I/O thread releases).
  BufferPool pool_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> packets_out_{0};
  Stats stats_;
  std::thread io_;
};

/// In-process loopback mesh: one TcpTransport per node, every daemon
/// packet crossing a real kernel socket, with process-global in-flight
/// accounting so the existing drivers' quiescence scans stay exact.
/// This is how one-process runs (benches, tycosh --transport tcp, most
/// tests) measure true socket overhead without forking. Failure
/// detection is disabled — mesh peers share one process and cannot die
/// independently.
class TcpMeshTransport : public Transport {
 public:
  explicit TcpMeshTransport(std::size_t nodes, TcpConfig base = {});
  ~TcpMeshTransport() override;

  void send(Packet p, double now_us) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override;
  std::uint64_t bytes_sent() const override {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_sent() const override {
    return packets_.load(std::memory_order_relaxed);
  }
  void shutdown() override;
  // In-process: termination detection needs no remote grace period.
  bool remote() const override { return false; }
  void set_receiver(std::uint32_t node, Receiver* r) override;
  std::size_t attach_work(WorkCount* w) override;

  TcpTransport& part(std::size_t i) { return *parts_.at(i); }
  std::size_t parts_count() const { return parts_.size(); }

 private:
  std::vector<std::unique_ptr<TcpTransport>> parts_;
  WorkCount* work_ = nullptr;  // set at rest, before daemons start
  // Sent, not yet queued at the destination part (socket transit).
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> packets_{0};
};

}  // namespace dityco::net
