// A DiTyCO node (paper, section 5, fig. 4): a pool of sites plus the
// communication daemon TyCOd, which serves this node's slice of the
// name service. One Node corresponds to one IP node of the cluster.
//
// Site packets never pass the daemon. A same-node packet goes from the
// sending executor straight into the sibling's inbox
// (Site::send_packet). A packet for another node goes from the sender's
// outbox to Transport::send on the sender's own executor
// (pump_site_outgoing, right after its slice), and the transport hands
// it to the destination node's receiver hook (deliver), which pushes it
// into the site's inbox. The daemon is the node's control plane: it
// serves name-service frames and PEER-DOWN notices (pump_incoming), and
// drops frames it cannot route. The pumps are functions so that the
// three drivers (sequential, threaded, simulated) can run them on their
// own schedule; in the threaded driver a dedicated daemon thread runs
// pump_incoming. Name-service frames a site sends to its own node are
// served on the sending executor, under the directory slice's lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/nameservice.hpp"
#include "core/site.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace dityco::ns {
class LeaseCache;
class ShardRouter;
}  // namespace dityco::ns

namespace dityco::core {

class Node final : public net::Receiver {
 public:
  /// `router` is the fleet's shard map (it outlives the node); this node
  /// hosts the directory slice the map assigns it, plus weak follower
  /// copies of its neighbour's slice. `lease_ns` > 0 gives the node a
  /// lease cache with that TTL and makes the hosted slice record lease
  /// holders so rebinds push kNsInvalidate frames. With `metrics`, the
  /// slice registers as {ns="shard<id>"} and the cache as "node<id>".
  Node(std::uint32_t id, ns::ShardRouter& router, std::uint64_t lease_ns = 0,
       obs::Registry* metrics = nullptr);
  ~Node();

  std::uint32_t id() const { return id_; }

  /// This node's lease cache; null when caching is off.
  ns::LeaseCache* lease_cache() { return ns_cache_.get(); }
  /// Fold gossiped death advisories into the shard map (over TCP;
  /// called by the daemon thread when the transport's advisory set
  /// changes). Moves shard ownership and re-replicates our slice, but
  /// never evicts bindings or writes off credit — those wait for the
  /// local detector's own kPeerDown verdict.
  void ns_merge_dead(const std::vector<std::uint32_t>& dead,
                     net::Transport& t, double now_us);
  /// This node's directory slice.
  NameService& name_service() { return ns_; }
  const NameService& name_service() const { return ns_; }

  Site& add_site(const std::string& name);
  std::vector<std::unique_ptr<Site>>& sites() { return sites_; }
  const std::vector<std::unique_ptr<Site>>& sites() const { return sites_; }

  /// The site's send path, run by the site's own executor right after
  /// its slice: drain one site's outbox. It holds name-service frames
  /// (served here, under the slice's lock, when this node owns the
  /// key) and packets for other nodes, which go to Transport::send;
  /// same-node site packets were already handed off by the sender.
  /// Returns packets moved.
  std::size_t pump_site_outgoing(net::Transport& t, std::size_t site_idx,
                                 double now_us);

  /// TyCOd: drain the daemon's queue in the transport (name-service
  /// frames, PEER-DOWN, frames the receiver hook declined; under the
  /// sim transport, every arrival) and route. Returns packets moved.
  std::size_t pump_incoming(net::Transport& t, double now_us);

  /// Route one packet addressed to this node (from the transport, or a
  /// name-service frame from a local site). Needs the transport to
  /// forward name-service replies. A frame that cannot be routed
  /// (truncated NS body, unknown destination site) is untrusted input: it
  /// is dropped, its work token released, and frames_malformed() counts
  /// it.
  void route(net::Packet p, net::Transport& t, double now_us);

  /// Packets delivered site-to-site within this node without touching the
  /// transport (the shared-memory optimisation of section 5): the sum of
  /// the sites' direct handoffs (MobilityStats::local_handoffs).
  std::uint64_t local_deliveries() const;

  /// Frames the daemon dropped at the route boundary as unroutable.
  std::uint64_t frames_malformed() const { return frames_malformed_; }

  // -- net::Receiver: the transport's delivery hook for this node --

  /// A site-addressed packet for a site this node has goes into that
  /// site's inbox; daemon frames, PEER-DOWN and unknown sites are
  /// declined and wait for pump_incoming.
  bool deliver(net::Packet& p, bool fresh,
               std::atomic<std::size_t>* transit) override;
  /// The daemon's parking bell: rung by the transport when it queues a
  /// packet for pump_incoming.
  net::Doorbell& daemon_bell() override { return bell_; }
  /// Packets queued in this node's site inboxes.
  std::size_t inbox_backlog() const override;

  /// Publish the directory slice's tables for concurrent /names scrapes
  /// (under the slice's lock).
  void publish_ns_snapshot();

  /// Threaded driver, at rest: count packets this node creates and
  /// consumes into `w` (null detaches), and attach every site (see
  /// Site::attach_work). Returns the tokens the sites hold now.
  std::int64_t attach_work(net::WorkCount* w, bool count_parked);

  // -- observability --

  /// Enable event tracing on every current and future site of this node,
  /// plus a daemon-side ring recording the name-service traffic the
  /// slice serves. The daemon ring is written only under the slice's
  /// lock, so one thread at a time writes it (the daemon thread, or an
  /// executor serving its own site's frame).
  /// `sample_every` > 1 keeps 1-in-N trace ids (see obs::trace_id_sampled);
  /// hops honour the wire-carried decision, so every site/daemon of the
  /// network agrees on the sampled id set regardless of who allocated it.
  void enable_tracing(std::size_t capacity, std::uint64_t sample_every = 1,
                      std::uint64_t sample_seed = 0);
  obs::TraceRing& daemon_ring() { return ring_; }
  const obs::TraceRing& daemon_ring() const { return ring_; }

  /// Tail-based retention: record *all* trace ids into the rings (the
  /// flight recorder decides post-hoc which survive) and attach the
  /// recorder to every current and future site. /trace re-filters to the
  /// sampled subset, so head sampling semantics are preserved.
  void set_flight(obs::FlightRecorder* f);
  /// Attach the request ledger to every current and future site
  /// (obs/slo.hpp; the Network owns it).
  void set_slo(obs::SloPlane* s);
  /// Enable the sampled VM profiler on every current and future site.
  void enable_profiling(std::uint64_t period);

 private:
  /// Failover: confirm `dead` in the shard map, evict its
  /// bindings from the local slice (pushing lease invalidations), and
  /// re-replicate every binding this node now owns as primary to its
  /// new follower.
  void ns_handle_dead(std::uint32_t dead, net::Transport& t, double now_us);
  /// A weak copy of every binding this node serves as primary, for its
  /// current follower (replication repair after a map change). Call
  /// with ns_mu_ held; emit the packets after releasing it.
  void ns_reshard(std::vector<net::Packet>& out);
  /// Send a packet this node created (NS replies, replicas, copies):
  /// takes its work token, then routes it here or hands it to `t`.
  void emit(net::Packet p, net::Transport& t, double now_us);
  /// route()'s body; throws DecodeError on an unroutable frame before
  /// passing its work token on.
  void dispatch(net::Packet& p, net::Transport& t, double now_us);

  std::uint32_t id_;
  // The directory slice and the daemon ring. Executors serving their
  // own name-service frames and the daemon thread share them, so both
  // are touched only under ns_mu_; packets they produce are emitted
  // after it is released (emit may route back into this node).
  std::mutex ns_mu_;
  NameService ns_;
  obs::Registry* metrics_ = nullptr;
  obs::Counter frames_malformed_;
  obs::Registry::Registration metrics_reg_;
  ns::ShardRouter* router_;
  // Declared before sites_: sites hold raw pointers to it.
  std::unique_ptr<ns::LeaseCache> ns_cache_;
  net::Doorbell bell_;  // before sites_, which ring it
  Site::Table sites_;
  std::size_t trace_capacity_ = 0;  // 0 = tracing off for new sites
  std::uint64_t sample_every_ = 1, sample_seed_ = 0;
  obs::FlightRecorder* flight_ = nullptr;  // set by set_flight
  obs::SloPlane* slo_ = nullptr;           // set by set_slo
  std::uint64_t prof_period_ = 0;          // 0 = profiling off
  obs::TraceRing ring_;             // daemon-side events
  net::WorkCount* work_ = nullptr;  // threaded runs only
};

}  // namespace dityco::core
