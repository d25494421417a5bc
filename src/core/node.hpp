// A DiTyCO node (paper, section 5, fig. 4): a pool of sites plus the
// communication daemon TyCOd, which also serves this node's slice of the
// name service. One Node corresponds to one IP node of the cluster.
// The daemon logic is exposed as pump functions so that the
// three drivers (sequential, threaded, simulated) can execute it on their
// own schedule; in the threaded driver a dedicated daemon thread runs
// them, exactly as in the paper.
#pragma once

#include <cstdint>
#include <memory>
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

/// Destination site id encoded in a packet header (for routing and for
/// the sim driver's clock accounting).
std::uint32_t packet_dst_site(const net::Packet& p);
/// True for packets addressed to the name service rather than a site.
bool packet_is_ns(const net::Packet& p);

class Node {
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

  /// TyCOd, outbound half: drain one site's outgoing queue. Local
  /// destinations (same node) are delivered directly — the paper's
  /// shared-memory optimisation — while remote ones go to the transport.
  /// Returns packets moved.
  std::size_t pump_site_outgoing(net::Transport& t, std::size_t site_idx,
                                 double now_us);
  std::size_t pump_outgoing(net::Transport& t, double now_us);

  /// TyCOd, inbound half: drain the transport inbox and route. Returns
  /// packets moved.
  std::size_t pump_incoming(net::Transport& t, double now_us);

  /// Route one packet addressed to this node (from the transport or from
  /// a local site). Needs the transport to forward name-service replies.
  void route(net::Packet p, net::Transport& t, double now_us);

  /// Packets delivered site-to-site within this node without touching the
  /// transport (the shared-memory optimisation of section 5).
  std::uint64_t local_deliveries() const { return local_deliveries_; }

  /// The daemon's parking bell: rung by pushes into any of this node's
  /// site outboxes and by the transport when a packet arrives.
  net::Doorbell& doorbell() { return bell_; }

  /// Threaded driver, at rest: count packets this node creates and
  /// consumes into `w` (null detaches), and attach every site (see
  /// Site::attach_work). Returns the tokens the sites hold now.
  std::int64_t attach_work(net::WorkCount* w, bool count_parked);

  // -- observability --

  /// Enable event tracing on every current and future site of this node,
  /// plus a daemon-side ring recording packet send/recv and name-service
  /// traffic. The daemon ring is written only by whichever thread runs
  /// the pump functions (one thread per node in the threaded driver).
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
  /// Attach the SLO plane's request ledger to every current and future
  /// site (obs/slo.hpp; the Network owns the plane).
  void set_slo(obs::SloPlane* s);
  /// Enable the sampled VM profiler on every current and future site.
  void enable_profiling(std::uint64_t period);

 private:
  /// Failover: confirm `dead` in the shard map, evict its
  /// bindings from the local slice (pushing lease invalidations), and
  /// re-replicate every binding this node now owns as primary to its
  /// new follower.
  void ns_handle_dead(std::uint32_t dead, net::Transport& t, double now_us);
  /// Push a weak copy of every binding this node serves as primary to
  /// its current follower (replication repair after a map change).
  void ns_reshard(net::Transport& t, double now_us);
  /// Send a packet this node created (NS replies, replicas, copies):
  /// takes its work token, then routes it here or hands it to `t`.
  void emit(net::Packet p, net::Transport& t, double now_us);

  std::uint64_t local_deliveries_ = 0;
  std::uint32_t id_;
  NameService ns_;
  obs::Registry* metrics_ = nullptr;
  ns::ShardRouter* router_;
  // Declared before sites_: sites hold raw pointers to it.
  std::unique_ptr<ns::LeaseCache> ns_cache_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::size_t trace_capacity_ = 0;  // 0 = tracing off for new sites
  std::uint64_t sample_every_ = 1, sample_seed_ = 0;
  obs::FlightRecorder* flight_ = nullptr;  // set by set_flight
  obs::SloPlane* slo_ = nullptr;           // set by set_slo
  std::uint64_t prof_period_ = 0;          // 0 = profiling off
  obs::TraceRing ring_;             // daemon-side events
  net::Doorbell bell_;
  net::WorkCount* work_ = nullptr;  // threaded runs only
};

}  // namespace dityco::core
