#include "core/node.hpp"

#include <cstring>

#include "ns/cache.hpp"
#include "ns/shard.hpp"

namespace dityco::core {

std::uint32_t packet_dst_site(const net::Packet& p) {
  if (p.bytes.size() < 5) throw DecodeError("short packet");
  std::uint32_t v;
  std::memcpy(&v, p.bytes.data() + 1, sizeof v);
  return v;
}

bool packet_is_ns(const net::Packet& p) {
  // packet_type masks the flag bits, so traced frames route the same as
  // untraced ones.
  const MsgType t = packet_type(p.bytes);
  return t == MsgType::kNsExport || t == MsgType::kNsLookup ||
         t == MsgType::kNsUnregister || t == MsgType::kNsInvalidate;
}

Node::Node(std::uint32_t id, ns::ShardRouter& router, std::uint64_t lease_ns,
           obs::Registry* metrics)
    : id_(id), ns_(id), metrics_(metrics), router_(&router) {
  if (lease_ns > 0) ns_cache_ = std::make_unique<ns::LeaseCache>(lease_ns);
  ns_.set_lease_tracking(lease_ns > 0);
  if (metrics_ != nullptr) {
    ns_.register_metrics(*metrics_, "shard" + std::to_string(id_));
    if (ns_cache_)
      ns_cache_->register_metrics(*metrics_, "node" + std::to_string(id_));
  }
}

Node::~Node() = default;

Site& Node::add_site(const std::string& name) {
  const auto site_id = static_cast<std::uint32_t>(sites_.size());
  sites_.push_back(
      std::make_unique<Site>(name, id_, site_id, *router_, ns_cache_.get()));
  ns_.register_site(name, id_, site_id);
  Site& s = *sites_.back();
  s.set_outbox_bell(&bell_);
  if (metrics_) s.register_metrics(*metrics_);
  if (trace_capacity_ > 0) {
    s.enable_tracing(trace_capacity_);
    s.set_trace_sampling(sample_every_, sample_seed_);
  }
  if (flight_ != nullptr) {
    s.set_flight(flight_);
    s.trace_ring().set_record_all(true);
  }
  if (slo_ != nullptr) s.set_slo(slo_);
  if (prof_period_ > 0) s.machine().enable_profiling(prof_period_);
  return s;
}

void Node::set_slo(obs::SloPlane* slo) {
  slo_ = slo;
  for (auto& s : sites_) s->set_slo(slo);
}

void Node::set_flight(obs::FlightRecorder* f) {
  flight_ = f;
  ring_.set_record_all(f != nullptr);
  if (f != nullptr) f->attach_ring(&ring_);
  for (auto& s : sites_) {
    s->set_flight(f);
    s->trace_ring().set_record_all(f != nullptr);
  }
}

void Node::enable_profiling(std::uint64_t period) {
  prof_period_ = period;
  for (auto& s : sites_) s->machine().enable_profiling(period);
}

void Node::enable_tracing(std::size_t capacity, std::uint64_t sample_every,
                          std::uint64_t sample_seed) {
  trace_capacity_ = capacity;
  sample_every_ = sample_every;
  sample_seed_ = sample_seed;
  ring_.enable(capacity, id_, obs::kDaemonSite);
  ring_.set_sampling(sample_every, sample_seed);
  for (auto& s : sites_) {
    if (!s->trace_ring().enabled()) s->enable_tracing(capacity);
    s->set_trace_sampling(sample_every, sample_seed);
  }
}

std::int64_t Node::attach_work(net::WorkCount* w, bool count_parked) {
  work_ = w;
  std::int64_t held = 0;
  for (auto& s : sites_) held += s->attach_work(w, count_parked);
  return held;
}

void Node::emit(net::Packet p, net::Transport& t, double now_us) {
  if (work_ != nullptr) work_->take();
  if (p.dst_node == id_)
    route(std::move(p), t, now_us);
  else
    t.send(std::move(p), now_us);
}

void Node::route(net::Packet p, net::Transport& t, double now_us) {
  // Work tokens (WorkCount): `p` holds one. Forwarding it or handing it
  // to a site passes the token on; packets made here take their own
  // (emit) before `p`'s is released by consume().
  const auto consume = [this] {
    if (work_ != nullptr) work_->release();
  };
  if (packet_is_ns(p)) {
    Reader r(p.bytes);
    const PacketHeader h = read_header(r);
    if (h.type == MsgType::kNsInvalidate) {
      // Lease invalidation pushed by a shard primary: drop the cached
      // binding so the next import re-resolves authoritatively.
      const NsInvalidate inv = read_ns_invalidate(r);
      if (ns_cache_ != nullptr) ns_cache_->invalidate(inv.site, inv.name);
      consume();
      return;
    }
    // The key's rendezvous owners decide this packet's fate. Every NS
    // frame leads with the key (site str, name str), so a copy of `r`
    // peeks it without disturbing `r`.
    Reader peek = r;
    const std::string ksite = peek.str();
    const std::string kname = peek.str();
    const auto owners = router_->owners_of(ksite, kname);
    bool keep_credit = true;
    if (h.type == MsgType::kNsLookup) {
      if (owners.primary != id_ && owners.primary != ns::ShardRouter::kNoNode) {
        // Not ours: forward to the owning shard. The reply goes
        // straight to the requester carried in the payload.
        net::Packet fwd;
        fwd.src_node = id_;
        fwd.dst_node = owners.primary;
        fwd.bytes = std::move(p.bytes);
        t.send(std::move(fwd), now_us);
        return;
      }
    } else {
      const bool primary_here = owners.primary == id_;
      const bool replica_here = owners.replica == id_;
      if (!primary_here && !replica_here) {
        // Stale client map or in-flight handoff: bounce to the
        // current primary, which re-replicates as needed.
        net::Packet fwd;
        fwd.src_node = id_;
        fwd.dst_node = owners.primary;
        fwd.bytes = std::move(p.bytes);
        if (owners.primary != ns::ShardRouter::kNoNode)
          t.send(std::move(fwd), now_us);
        else
          consume();
        return;
      }
      if (primary_here && owners.replica != ns::ShardRouter::kNoNode &&
          owners.replica != id_ && !router_->is_dead(owners.replica)) {
        // Primary replicates byte-identically to its follower; the
        // follower classifies itself as replica and keeps no credit.
        net::Packet copy;
        copy.src_node = id_;
        copy.dst_node = owners.replica;
        copy.bytes = p.bytes;
        emit(std::move(copy), t, now_us);
      }
      // Exactly one credit holder per minted unit: the primary.
      keep_credit = primary_here;
    }
    std::vector<net::Packet> replies;
    if (h.type == MsgType::kNsExport || h.type == MsgType::kNsUnregister) {
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kNsExport, h.trace_id, p.bytes.size());
      if (h.type == MsgType::kNsExport)
        ns_.handle_export(r, replies, keep_credit);
      else
        ns_.handle_unregister(r, replies);
    } else {
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kNsLookup, h.trace_id, p.bytes.size());
      ns_.handle_lookup(r, replies, h.trace_id, h.sampled);
    }
    for (auto& rep : replies) emit(std::move(rep), t, now_us);
    consume();
    return;
  }
  if (packet_type(p.bytes) == MsgType::kPeerDown) {
    // A synthetic death notice injected by the transport's failure
    // detector: every site on this node writes off the dead holder's
    // export credit, and this node's directory slice drops the dead
    // node's registrations so lookups stop resolving to it.
    Reader r(p.bytes);
    read_header(r);
    ns_handle_dead(read_peer_down(r), t, now_us);
    for (auto& s : sites_) {
      if (work_ != nullptr) work_->take();
      s->push_incoming(p.bytes, p.src_node);
    }
    consume();
    return;
  }
  const std::uint32_t dst_site = packet_dst_site(p);
  if (dst_site >= sites_.size()) throw DecodeError("packet to unknown site");
  sites_[dst_site]->push_incoming(std::move(p.bytes), p.src_node);
}

void Node::ns_handle_dead(std::uint32_t dead, net::Transport& t,
                          double now_us) {
  // Confirmed death (our own failure detector, not gossip): shrink the
  // shard map, drop the dead node's bindings from our slice, and push
  // lease invalidations for them.
  router_->note_dead(dead);
  std::vector<net::Packet> out;
  ns_.evict_node(dead, &out);
  // Handoff: bindings we held as a follower of the dead primary are
  // promoted implicitly — the map already points at us — and everything
  // we now serve as primary gets re-replicated to its new follower.
  ns_reshard(t, now_us);
  if (ns_cache_ != nullptr) ns_cache_->invalidate_node(dead);
  for (auto& o : out) emit(std::move(o), t, now_us);
}

void Node::ns_reshard(net::Transport& t, double now_us) {
  // Weak copies only (credit=0): the credit a primary holds never
  // travels on the repair path — a promoted follower serves bindings
  // weakly and the original exporter's write-off of the dead primary
  // squares the ledger (DESIGN.md, GC invariants).
  for (const auto& rec : ns_.handoff_records()) {
    const auto owners = router_->owners_of(rec.site, rec.name);
    if (owners.primary != id_) continue;
    const std::uint32_t rep = owners.replica;
    if (rep == ns::ShardRouter::kNoNode || rep == id_ || router_->is_dead(rep))
      continue;
    net::Packet copy;
    copy.src_node = id_;
    copy.dst_node = rep;
    copy.bytes = NameService::make_export(0, rec.site, rec.name, rec.ref,
                                          rec.type_sig, 0, true, /*credit=*/0);
    emit(std::move(copy), t, now_us);
  }
}

void Node::ns_merge_dead(const std::vector<std::uint32_t>& dead,
                         net::Transport& t, double now_us) {
  std::vector<std::uint32_t> others;
  for (std::uint32_t d : dead)
    if (d != id_) others.push_back(d);
  if (!router_->merge_dead(others)) return;
  ns_reshard(t, now_us);
}

std::size_t Node::pump_site_outgoing(net::Transport& t, std::size_t site_idx,
                                     double now_us) {
  std::size_t moved = 0;
  net::Packet p;
  while (sites_.at(site_idx)->pop_outgoing(p)) {
    ++moved;
    if (p.dst_node == id_) {
      if (!packet_is_ns(p)) ++local_deliveries_;
      route(std::move(p), t, now_us);  // shared-memory fast path
    } else {
      if (ring_.enabled() && ring_.should_record(packet_sampled(p.bytes)))
        ring_.record(obs::EventType::kPacketSend, packet_trace_id(p.bytes),
                     p.bytes.size());
      t.send(std::move(p), now_us);
    }
  }
  return moved;
}

std::size_t Node::pump_outgoing(net::Transport& t, double now_us) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i)
    moved += pump_site_outgoing(t, i, now_us);
  return moved;
}

std::size_t Node::pump_incoming(net::Transport& t, double now_us) {
  std::size_t moved = 0;
  net::Packet p;
  while (t.recv(id_, p, now_us)) {
    ++moved;
    if (ring_.enabled() && ring_.should_record(packet_sampled(p.bytes)))
      ring_.record(obs::EventType::kPacketRecv, packet_trace_id(p.bytes),
                   p.bytes.size());
    route(std::move(p), t, now_us);
  }
  return moved;
}

}  // namespace dityco::core
