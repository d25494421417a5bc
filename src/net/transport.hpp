// Node-to-node transports.
//
// The paper's testbed (section 5, fig. 1) is a 4-node PC cluster with a
// 1 Gb/s Myrinet switch and a 100 Mb/s Fast-Ethernet uplink. We do not
// have that hardware, so two substitutes are provided:
//   * InProcTransport — immediate, thread-safe delivery between nodes in
//     one process; used by the sequential and threaded drivers for
//     functional execution;
//   * SimTransport — virtual-time delivery under a configurable link
//     model (latency + size/bandwidth), used by the discrete-event
//     cluster driver to reproduce the paper's performance claims
//     (latency hiding, granularity limits, local-vs-remote cost).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace dityco::net {

/// A futex wakeup for one parked thread. Any thread may ring(); the
/// owner takes a ticket *before* it looks for work and parks with
/// wait(ticket), which returns at once if the bell rang since — so a
/// push that lands between the look and the park is never missed.
/// ring() costs one atomic add, plus a wake syscall only while the
/// owner is actually parked.
class Doorbell {
 public:
  std::uint32_t ticket() const {
    return word_.load(std::memory_order_acquire) & ~1u;
  }
  void ring();
  /// Park until a ring after `ticket`. May return early; callers
  /// re-check their condition.
  void wait(std::uint32_t ticket);
  /// As wait(), but for at most `timeout` (none left: returns at once).
  void wait_for(std::uint32_t ticket, std::chrono::nanoseconds timeout);

 private:
  void park(std::uint32_t ticket, const std::timespec* timeout);

  // Ring count in the high 31 bits; bit 0 is set while the owner sleeps.
  std::atomic<std::uint32_t> word_{0};
};

/// Exact termination for the threaded driver: the run-wide count of
/// packets not yet applied plus executors with runnable work. Every
/// packet holds one token from creation until it is applied or
/// dropped, and a holder always takes the new token (a packet it
/// sends, its executor's busy token) before releasing the old one, so
/// the count reaches zero only when no work is left anywhere. The
/// release that reaches zero rings done().
class WorkCount {
 public:
  void take(std::int64_t n = 1) { n_.fetch_add(n, std::memory_order_relaxed); }
  void release(std::int64_t n = 1) {
    if (n_.fetch_sub(n, std::memory_order_acq_rel) == n) done_.ring();
  }
  std::int64_t value() const { return n_.load(std::memory_order_acquire); }
  Doorbell& done() { return done_; }

 private:
  std::atomic<std::int64_t> n_{0};
  Doorbell done_;
};

/// A node's delivery hook, one per node (Transport::set_receiver). A
/// real transport offers it every packet that arrives for the node, on
/// the thread that delivers: the sender's under InProcTransport, the
/// I/O thread under TCP. Site-addressed packets go straight into the
/// site's inbox; what the hook declines (daemon frames, a site the node
/// does not have) waits in the transport for the node daemon's recv().
class Receiver {
 public:
  /// Push `p` into the inbox of the site its header names and ring that
  /// site's bell; false (and `p` untouched) for a packet the daemon
  /// must route. With `fresh` the packet holds no work token yet (it
  /// came from another process): the site takes one as it queues it.
  /// A non-null `transit` is the sender's count of packets in socket
  /// transit: it drops by one inside the critical section that queues
  /// the packet, so no executor can apply the packet (and release the
  /// run's last work token) while it is still counted in transit.
  virtual bool deliver(Packet& p, bool fresh,
                       std::atomic<std::size_t>* transit) = 0;
  /// Rung after a declined packet is queued for the daemon.
  virtual Doorbell& daemon_bell() = 0;
  /// Packets sitting in the node's site inboxes. A transport that
  /// delivers on a thread of its own counts them in in_flight(), so a
  /// single-threaded pump that reads in_flight() after its sites never
  /// misses an arrival.
  virtual std::size_t inbox_backlog() const = 0;

 protected:
  ~Receiver() = default;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueue a packet.
  ///
  /// Clock contract: `now_us` is the sender's *virtual* clock and is
  /// only meaningful to virtual-time transports (SimTransport uses it
  /// to stamp arrival times). Real transports — InProcTransport,
  /// TcpTransport — run on the wall clock and ignore the argument
  /// entirely; callers must not encode ordering or delay assumptions
  /// into it. The same holds for `recv`'s `now_us`.
  virtual void send(Packet p, double now_us) = 0;

  /// Pop one deliverable packet for `node`. `now_us` is the receiver's
  /// clock; packets still "in the wire" at that time are not returned.
  virtual bool recv(std::uint32_t node, Packet& out, double now_us) = 0;

  /// Packets sent but not yet received (for quiescence detection). A
  /// transport that delivers on a thread of its own also counts those
  /// its receivers hold in site inboxes (see Receiver::inbox_backlog).
  virtual std::size_t in_flight() const = 0;

  /// Stop any background machinery (I/O threads, sockets) and release
  /// waiters blocked in send(). Idempotent; default is a no-op for
  /// passive transports. Drivers call this before tearing down nodes so
  /// a teardown-time quiescence scan cannot race a live I/O thread.
  virtual void shutdown() {}

  /// True when this transport reaches peers *outside* the current
  /// process (tycod over TCP). Remote transports make quiescence
  /// fundamentally approximate — packets can be on another machine's
  /// queue — so drivers confirm an idle count over a window and keep
  /// serving until the remote side goes idle too.
  virtual bool remote() const { return false; }

  /// Hand every packet that arrives for `node` to `r` (see Receiver);
  /// null detaches. The receiver must outlive the transport. Virtual-
  /// time transports ignore it: their driver delivers by arrival time.
  virtual void set_receiver(std::uint32_t node, Receiver* r) {
    (void)node;
    (void)r;
  }

  /// Report to `w` from now on every packet this transport drops (and,
  /// for a remote transport, every packet entering or leaving the
  /// process); null detaches. Returns the packets held right now that
  /// this process will still receive — the transport's share of the
  /// count's starting value, read atomically with the attach.
  virtual std::size_t attach_work(WorkCount* w) {
    (void)w;
    return in_flight();
  }

  /// Earliest arrival time of any undelivered packet for `node`
  /// (virtual-time transports only; nullopt when none or not simulated).
  virtual std::optional<double> next_arrival(std::uint32_t node) const {
    (void)node;
    return std::nullopt;
  }

  /// Total bytes ever sent (benchmark accounting).
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t packets_sent() const = 0;
};

/// Immediate delivery on the sender's thread: a node's receiver takes
/// site packets at send; per-node FIFO queues hold the rest for the
/// daemon. Thread safe.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(std::size_t nodes)
      : inboxes_(nodes), receivers_(nodes, nullptr) {}

  void send(Packet p, double now_us) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override;
  std::uint64_t bytes_sent() const override { return bytes_; }
  std::uint64_t packets_sent() const override { return packets_; }
  void set_receiver(std::uint32_t node, Receiver* r) override;
  std::size_t attach_work(WorkCount* w) override;

  /// Fault injection: packets the filter claims are silently discarded
  /// at send time (a lossy link). The filter runs under the transport
  /// mutex, so it must not call back into the transport.
  void set_drop_filter(std::function<bool(const Packet&)> f);
  /// Packets discarded at send: filtered, or addressed to a node
  /// outside the fleet.
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::deque<Packet>> inboxes_;
  std::vector<Receiver*> receivers_;
  WorkCount* work_ = nullptr;
  std::function<bool(const Packet&)> drop_;
  // Written under mu_; read without it so that recv() on an empty
  // queue — the daemon's usual case — takes no lock.
  std::atomic<std::size_t> in_flight_{0};
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Point-to-point link cost model: one-way delivery time for a packet.
struct LinkModel {
  double latency_us = 10.0;       // per-packet switch + wire latency
  double bandwidth_mbps = 1000.0; // megabits per second
  double per_packet_cpu_us = 1.0; // daemon marshal/dispatch overhead

  double cost_us(std::size_t bytes) const {
    // 1 Mbit/s == 1 bit/us, so bits / Mbps yields microseconds.
    return latency_us + per_packet_cpu_us +
           static_cast<double>(bytes) * 8.0 / bandwidth_mbps;
  }
};

/// The paper's 1 Gb/s Myrinet switch: low single-digit-microsecond-class
/// latency, 1000 Mb/s.
LinkModel myrinet();
/// The paper's 100 Mb/s Fast Ethernet uplink: ~an order of magnitude
/// worse latency and a tenth of the bandwidth.
LinkModel fast_ethernet();

/// Virtual-time transport: packets become visible to the receiver when
/// its clock passes send_time + link cost. Single-threaded use only
/// (driven by the discrete-event driver).
class SimTransport : public Transport {
 public:
  SimTransport(std::size_t nodes, LinkModel model)
      : model_(model), inboxes_(nodes) {}

  void send(Packet p, double now_us) override;
  bool recv(std::uint32_t node, Packet& out, double now_us) override;
  std::size_t in_flight() const override { return in_flight_; }
  std::optional<double> next_arrival(std::uint32_t node) const override;
  std::uint64_t bytes_sent() const override { return bytes_; }
  std::uint64_t packets_sent() const override { return packets_; }

  /// Inspect the head of a node's inbox without removing it (drivers need
  /// the destination site before deciding whether it may be delivered).
  const Packet* peek(std::uint32_t node, double& arrival_us) const;

  const LinkModel& model() const { return model_; }

  /// Per-packet extra delivery cost in µs, added on top of the link
  /// model (fault/latency injection for deterministic slow-path tests).
  void set_extra_cost(std::function<double(const Packet&)> f) {
    extra_cost_ = std::move(f);
  }

  /// Packets discarded at send, addressed to a node outside the fleet.
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Timed {
    double arrival_us;
    Packet packet;
  };

  LinkModel model_;
  std::function<double(const Packet&)> extra_cost_;
  std::vector<std::deque<Timed>> inboxes_;  // kept sorted by arrival
  std::size_t in_flight_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dityco::net
