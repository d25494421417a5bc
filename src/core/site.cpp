#include "core/site.hpp"

#include "core/nameservice.hpp"
#include "ns/cache.hpp"
#include "ns/shard.hpp"
#include "types/type.hpp"

namespace dityco::core {

/// Adapter from the VM's RemoteBackend interface onto the owning Site.
class Site::Backend : public vm::RemoteBackend {
 public:
  explicit Backend(Site& s) : site_(s) {}

  void ship_message(vm::Machine&, const vm::NetRef& target,
                    const std::string& label,
                    std::vector<vm::Value> args) override {
    site_.ship_message(target, label, std::move(args));
  }
  void ship_object(vm::Machine&, const vm::NetRef& target,
                   std::uint32_t seg_slot,
                   std::vector<vm::Value> env) override {
    site_.ship_object(target, seg_slot, std::move(env));
  }
  void fetch_instantiate(vm::Machine&, const vm::NetRef& cls,
                         std::vector<vm::Value> args) override {
    site_.fetch_instantiate(cls, std::move(args));
  }
  void export_name(vm::Machine& m, const std::string& name,
                   vm::Value chan) override {
    site_.export_id(name,
                    vm::NetRef{vm::NetRef::Kind::kChan, m.node_id(),
                               m.site_id(), m.export_chan(chan.idx)});
  }
  void export_class(vm::Machine& m, const std::string& name,
                    vm::Value cls) override {
    site_.export_id(name,
                    vm::NetRef{vm::NetRef::Kind::kClass, m.node_id(),
                               m.site_id(), m.export_class_value(cls)});
  }
  void import_name(vm::Machine&, const std::string& site,
                   const std::string& name, std::uint64_t token) override {
    site_.import_id(site, name, vm::NetRef::Kind::kChan, token);
  }
  void import_class(vm::Machine&, const std::string& site,
                    const std::string& name, std::uint64_t token) override {
    site_.import_id(site, name, vm::NetRef::Kind::kClass, token);
  }

 private:
  Site& site_;
};

Site::Site(std::string name, std::uint32_t node_id, std::uint32_t site_id,
           const ns::ShardRouter& router, ns::LeaseCache* cache)
    : name_(std::move(name)),
      node_id_(node_id),
      site_id_(site_id),
      ns_router_(router),
      lease_cache_(cache),
      backend_(std::make_unique<Backend>(*this)),
      machine_(name_, node_id, site_id, backend_.get()) {}

Site::~Site() = default;

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void Site::enable_tracing(std::size_t capacity) {
  ring_.enable(capacity, node_id_, site_id_);
  machine_.set_event_ring(&ring_);
}

void Site::register_metrics(obs::Registry& registry) {
  machine_.register_metrics(registry);
  metrics_reg_ = registry.add_collector([this](obs::Collector& c) {
    const std::string l = "{site=\"" + name_ + "\"}";
    c.counter("site_msgs_shipped" + l, mobility_.msgs_shipped);
    c.counter("site_objs_shipped" + l, mobility_.objs_shipped);
    c.counter("site_msgs_received" + l, mobility_.msgs_received);
    c.counter("site_objs_received" + l, mobility_.objs_received);
    c.counter("site_fetch_requests" + l, mobility_.fetch_requests);
    c.counter("site_fetch_cache_hits" + l, mobility_.fetch_cache_hits);
    c.counter("site_fetch_served" + l, mobility_.fetch_served);
    c.counter("site_loopback" + l, mobility_.loopback);
    c.counter("site_dropped" + l, mobility_.dropped);
    c.counter("site_trace_events" + l, ring_.recorded());
    c.counter("site_trace_dropped" + l, ring_.dropped());
    c.counter("site_trace_sampled" + l, ring_.sampled());
    c.counter("site_trace_unsampled" + l, ring_.unsampled());
    c.counter("site_gc_reclaimed_total" + l,
              machine_.gc_stats().exports_reclaimed);
    c.counter("site_gc_collections" + l, machine_.gc_stats().collections);
    c.counter("site_gc_channels_freed" + l,
              machine_.gc_stats().channels_freed);
    c.counter("site_gc_netrefs_freed" + l, machine_.gc_stats().netrefs_freed);
    c.counter("site_gc_credit_mints" + l, machine_.gc_stats().credit_mints);
    c.counter("site_gc_credit_starved" + l,
              machine_.gc_stats().credit_starved);
    c.counter("site_gc_rel_stale" + l, machine_.gc_stats().rel_stale);
    c.counter("site_gc_rel_sent" + l, mobility_.gc_rel_sent);
    c.counter("site_gc_rel_received" + l, mobility_.gc_rel_received);
    c.counter("site_gc_rel_dead" + l, mobility_.gc_rel_dead);
    c.counter("site_gc_credit_written_off" + l,
              machine_.gc_stats().credit_written_off);
    c.counter("site_peers_down" + l, mobility_.peers_down);
    c.counter("site_ns_dropped" + l, mobility_.ns_dropped);
    c.histogram("site_packet_bytes" + l, packet_bytes_.snapshot());
    c.histogram("site_fetch_rtt_us" + l, fetch_rtt_us_.snapshot());
  });
  // Export-table and heap occupancy read plain containers on the
  // executor thread: live scrapes skip them (live_safe=false).
  gauges_reg_ = registry.add_collector(
      [this](obs::Collector& c) {
        const std::string l = "{site=\"" + name_ + "\"}";
        c.gauge("site_exports_live" + l,
                static_cast<std::int64_t>(machine_.live_exports()));
        c.gauge("site_gc_credit_outstanding" + l,
                static_cast<std::int64_t>(machine_.exports_outstanding()));
        c.gauge("site_gc_credit_held" + l,
                static_cast<std::int64_t>(machine_.netref_credit_total()));
        c.gauge("site_live_channels" + l,
                static_cast<std::int64_t>(machine_.live_channels()));
        c.gauge("site_live_netrefs" + l,
                static_cast<std::int64_t>(machine_.live_netrefs()));
      },
      /*live_safe=*/false);
}

std::vector<std::string> Site::errors() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return errors_;
}

void Site::record_error(std::string what) {
  std::lock_guard<std::mutex> lk(err_mu_);
  errors_.push_back(std::move(what));
}

// ---------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------

void Site::push_incoming(std::vector<std::uint8_t> bytes,
                         std::uint32_t src_node) {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    incoming_.push_back(Delivery{std::move(bytes), src_node});
  }
  bell_.ring();
}

bool Site::pop_outgoing(net::Packet& out) {
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (outgoing_.empty()) return false;
  out = std::move(outgoing_.front());
  outgoing_.pop_front();
  return true;
}

std::size_t Site::incoming_size() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return incoming_.size();
}

std::size_t Site::outgoing_size() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return outgoing_.size();
}

std::int64_t Site::attach_work(net::WorkCount* w, bool count_parked) {
  work_ = w;
  count_parked_ = count_parked;
  busy_ = w != nullptr && wants_busy();
  if (w == nullptr) return 0;
  std::lock_guard<std::mutex> lk(queue_mu_);
  return static_cast<std::int64_t>(incoming_.size() + outgoing_.size()) +
         (busy_ ? 1 : 0);
}

bool Site::wants_busy() const {
  return !failed() && (!machine_.idle() ||
                       (count_parked_ && machine_.parked() > 0));
}

void Site::sync_busy() {
  if (work_ == nullptr || wants_busy() == busy_) return;
  busy_ = !busy_;
  if (busy_)
    work_->take();
  else
    work_->release();
}

void Site::send_packet(std::uint32_t dst_node,
                       std::vector<std::uint8_t> bytes) {
  if (dst_node == ns::ShardRouter::kNoNode) {
    // A name-service frame whose key has no live owner (every shard
    // node confirmed dead): nothing can serve it, so it is dropped
    // before it takes a work token and the run ends stalled.
    ++mobility_.ns_dropped;
    return;
  }
  net::Packet p;
  p.src_node = node_id_;
  p.dst_node = dst_node;
  p.bytes = std::move(bytes);
  if (work_ != nullptr) work_->take();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    outgoing_.push_back(std::move(p));
  }
  if (outbox_bell_ != nullptr) outbox_bell_->ring();
}

std::size_t Site::process_incoming(std::size_t max_packets) {
  std::size_t n = 0;
  while (n < max_packets) {
    Delivery d;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (incoming_.empty()) break;
      d = std::move(incoming_.front());
      incoming_.pop_front();
    }
    if (failed()) {
      ++mobility_.dropped;  // crashed sites lose their deliveries
      sync_busy();
      if (work_ != nullptr) work_->release();
      ++n;
      continue;
    }
    // Debtor attribution: credit returning in this packet pays down the
    // sender's debt slot (a self-delivery attributes to ourselves, which
    // is equally correct — our own node is never written off).
    machine_.set_credit_peer(d.src_node);
    PacketHeader h;  // trace id 0 until the header parses
    try {
      Reader r(d.bytes);
      h = read_header(r);
      machine_.set_credit_trace(h.trace_id);
      handle_packet(h, r, d.bytes.size());
    } catch (const std::exception& e) {
      // The packet boundary is where untrusted bytes enter: any failure
      // (malformed frame, verification, forged reference) poisons only
      // this delivery, never the site.
      record_error(name_ + ": malformed packet: " + e.what());
      if (flight_ != nullptr && h.trace_id != 0)
        flight_->promote(h.trace_id, obs::FlightRecorder::Reason::kError);
    }
    machine_.set_credit_peer(vm::Machine::kNoPeer);
    machine_.set_credit_trace(0);
    // Work it woke (or replies it sent) holds its own token by now.
    sync_busy();
    if (work_ != nullptr) work_->release();
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Outbound remote operations (called from the VM via the backend)
// ---------------------------------------------------------------------

void Site::ship_message(const vm::NetRef& target, const std::string& label,
                        std::vector<vm::Value> args) {
  if (target.node == node_id_ && target.site == site_id_) {
    // A network reference that leads back here: resolve locally (the
    // same-site short circuit; no marshalling needed).
    ++mobility_.loopback;
    machine_.deliver_message(target.heap_id, label, std::move(args));
    return;
  }
  const obs::TraceTag tid = fresh_trace_id();
  const std::uint64_t starved0 = machine_.gc_stats().credit_starved;
  Writer w;
  write_header(w, MsgType::kShipMsg, target.site, tid.id, tid.sampled);
  w.u64(target.heap_id);
  w.str(label);
  // Credit minted while marshalling is charged to the receiving node
  // (and stamped with this ship's trace id for the audit plane).
  machine_.set_credit_peer(target.node);
  machine_.set_credit_trace(tid.id);
  marshal_values(machine_, args, w);
  machine_.set_credit_peer(vm::Machine::kNoPeer);
  machine_.set_credit_trace(0);
  auto bytes = w.take();
  packet_bytes_.observe(static_cast<double>(bytes.size()));
  if (ring_.should_record(tid.sampled))
    ring_.record(obs::EventType::kShipMsgOut, tid.id, bytes.size());
  if (flight_ != nullptr && tid.id != 0) {
    flight_->on_depart(tid.id, now_ns());
    if (machine_.gc_stats().credit_starved > starved0)
      flight_->promote(tid.id, obs::FlightRecorder::Reason::kStarved);
  }
  if (slo_ != nullptr && tid.id != 0)
    slo_->on_depart(tid.id, obs::SloPlane::Op::kMsg, now_ns());
  send_packet(target.node, std::move(bytes));
  ++mobility_.msgs_shipped;
}

void Site::ship_object(const vm::NetRef& target, std::uint32_t seg_slot,
                       std::vector<vm::Value> env) {
  if (target.node == node_id_ && target.site == site_id_) {
    ++mobility_.loopback;
    machine_.deliver_object(target.heap_id, seg_slot, std::move(env));
    return;
  }
  const obs::TraceTag tid = fresh_trace_id();
  const std::uint64_t starved0 = machine_.gc_stats().credit_starved;
  Writer w;
  write_header(w, MsgType::kShipObj, target.site, tid.id, tid.sampled);
  w.u64(target.heap_id);
  std::vector<vm::Segment> closure;
  machine_.collect_closure(seg_slot, closure);
  write_closure(w, closure);
  machine_.set_credit_peer(target.node);
  machine_.set_credit_trace(tid.id);
  marshal_values(machine_, env, w);
  machine_.set_credit_peer(vm::Machine::kNoPeer);
  machine_.set_credit_trace(0);
  auto bytes = w.take();
  packet_bytes_.observe(static_cast<double>(bytes.size()));
  if (ring_.should_record(tid.sampled))
    ring_.record(obs::EventType::kShipObjOut, tid.id, bytes.size());
  if (flight_ != nullptr && tid.id != 0) {
    flight_->on_depart(tid.id, now_ns());
    if (machine_.gc_stats().credit_starved > starved0)
      flight_->promote(tid.id, obs::FlightRecorder::Reason::kStarved);
  }
  if (slo_ != nullptr && tid.id != 0)
    slo_->on_depart(tid.id, obs::SloPlane::Op::kObj, now_ns());
  send_packet(target.node, std::move(bytes));
  ++mobility_.objs_shipped;
}

void Site::fetch_instantiate(const vm::NetRef& cls,
                             std::vector<vm::Value> args) {
  if (cls.node == node_id_ && cls.site == site_id_) {
    ++mobility_.loopback;
    machine_.instantiate_class(machine_.resolve_exported_class(cls.heap_id),
                               std::move(args));
    return;
  }
  if (fetch_cache_enabled_) {
    auto it = class_cache_.find(cls);
    if (it != class_cache_.end()) {
      ++mobility_.fetch_cache_hits;
      ring_.record(obs::EventType::kFetchHit, 0, cls.heap_id);
      machine_.instantiate_class(it->second, std::move(args));
      return;
    }
  }
  auto& parked = pending_fetch_[cls];
  parked.push_back(std::move(args));
  if (parked.size() > 1) return;  // request already in flight
  const obs::TraceTag tid = fresh_trace_id();
  const std::uint64_t req = next_req_++;
  // Ring time base: under the sim driver the FETCH RTT (and the flight
  // recorder's promotion decision) is then virtual-time deterministic.
  fetch_by_req_[req] = FetchInFlight{cls, now_ns()};
  Writer w;
  write_header(w, MsgType::kFetchReq, cls.site, tid.id, tid.sampled);
  w.u64(cls.heap_id);
  w.u32(node_id_);
  w.u32(site_id_);
  w.u64(req);
  auto bytes = w.take();
  packet_bytes_.observe(static_cast<double>(bytes.size()));
  if (ring_.should_record(tid.sampled))
    ring_.record(obs::EventType::kFetchReq, tid.id, cls.heap_id);
  if (flight_ != nullptr && tid.id != 0) flight_->on_depart(tid.id, now_ns());
  if (slo_ != nullptr && tid.id != 0)
    slo_->on_depart(tid.id, obs::SloPlane::Op::kFetch, now_ns());
  send_packet(cls.node, std::move(bytes));
  ++mobility_.fetch_requests;
}

std::uint32_t Site::ns_target(const std::string& site,
                              const std::string& name) const {
  return ns_router_.primary_of(site, name);
}

void Site::export_id(const std::string& name, const vm::NetRef& ref) {
  std::string sig;
  if (auto it = export_sigs_.find(name); it != export_sigs_.end())
    sig = it->second;
  const obs::TraceTag tid = fresh_trace_id();
  const std::uint32_t target = ns_target(name_, name);
  // The name service becomes a credit holder for this entry: it hands
  // shares of the minted balance to importers and RELs the remainder
  // when the binding is dropped. The name pin keeps the entry alive even
  // if every unit of credit drains first. The mint is attributed to the
  // owning shard primary, so a confirmed-dead shard's held balance is
  // forgiven by write_off_node.
  machine_.set_credit_peer(target);
  machine_.set_credit_trace(tid.id);
  const std::uint64_t credit = machine_.mint_export_credit(ref);
  machine_.set_credit_trace(0);
  machine_.set_credit_peer(vm::Machine::kNoPeer);
  machine_.pin_name(ref);
  exported_names_.emplace_back(name, ref);
  if (ring_.should_record(tid.sampled))
    ring_.record(obs::EventType::kNsExport, tid.id);
  send_packet(target, NameService::make_export(0, name_, name, ref, sig,
                                               tid.id, tid.sampled, credit));
}

void Site::import_id(const std::string& site, const std::string& name,
                     vm::NetRef::Kind kind, std::uint64_t token) {
  import_token_keys_[token] = {site, name};
  const obs::TraceTag tid = fresh_trace_id();
  if (ring_.should_record(tid.sampled))
    ring_.record(obs::EventType::kNsLookup, tid.id, token);
  if (lease_cache_ != nullptr) {
    vm::NetRef ref;
    std::string sig;
    if (lease_cache_->lookup(site, name, kind, obs::trace_now_ns(), ref,
                             sig)) {
      // Lease hit: synthesize the reply the service would have sent and
      // deliver it through the normal queue (the importing frame parks
      // first; the resume must not run under this stack). The handle is
      // weak (zero credit) — safe, the exporter's name pin holds the
      // entry for the binding's lifetime.
      cache_tokens_.insert(token);
      if (work_ != nullptr) work_->take();
      Writer w;
      write_header(w, MsgType::kNsReply, site_id_, tid.id, tid.sampled);
      w.u64(token);
      w.boolean(true);
      write_netref(w, ref);
      w.str(sig);
      w.u64(0);
      push_incoming(w.take(), node_id_);
      return;
    }
  }
  send_packet(ns_target(site, name),
              NameService::make_lookup(site, name, kind, node_id_, site_id_,
                                       token, tid.id, tid.sampled));
}

// ---------------------------------------------------------------------
// Distributed GC (executor thread)
// ---------------------------------------------------------------------

std::size_t Site::collect(bool final, bool resend) {
  if (failed()) return 0;
  std::size_t queued = 0;
  if (final) {
    // Shutdown epoch: the dynamic-link cache no longer pins fetched
    // classes, and every name-service binding this site made is dropped
    // (the unregister REL-releases the credit the service still holds).
    class_cache_.clear();
    for (const auto& [name, ref] : exported_names_) {
      send_packet(ns_target(name_, name),
                  NameService::make_unregister(name_, name));
      ++queued;
      machine_.unpin_name(ref);
    }
    exported_names_.clear();
  }
  if (machine_.gc_dirty() || final || resend) {
    // The fetch machinery holds values outside the VM: cached class
    // values are roots, and the netrefs keying them (plus in-flight
    // fetch requests) must keep their credit balances.
    std::vector<vm::Value> roots;
    std::vector<vm::NetRef> pinned;
    for (const auto& [ref, cls] : class_cache_) {
      roots.push_back(cls);
      pinned.push_back(ref);
    }
    for (const auto& [ref, waiting] : pending_fetch_) {
      pinned.push_back(ref);
      for (const auto& args : waiting)
        for (const auto& v : args) roots.push_back(v);
    }
    for (const auto& [req, inflight] : fetch_by_req_)
      pinned.push_back(inflight.cls);
    machine_.gc(roots, pinned);
  }
  const auto rels =
      resend ? machine_.all_releases() : machine_.take_pending_releases();
  for (const auto& [ref, cum] : rels) {
    if (dead_peers_.count(ref.node) != 0) {
      // The owner is confirmed dead: a REL cannot reach it, and its
      // survivors already wrote this credit off. Drop instead of queue.
      ++mobility_.gc_rel_dead;
      continue;
    }
    if (ref.owned_by(node_id_, site_id_)) {
      // A reference to our own heap that was interned here (loopback):
      // apply without a wire round trip.
      machine_.apply_release(ref.kind, ref.heap_id, node_id_, site_id_, cum);
      continue;
    }
    const obs::TraceTag tid = fresh_trace_id();
    if (ring_.should_record(tid.sampled))
      ring_.record(obs::EventType::kRelOut, tid.id, cum);
    send_packet(ref.node,
                make_release(ref, node_id_, site_id_, cum, tid.id,
                             tid.sampled));
    ++mobility_.gc_rel_sent;
    ++queued;
  }
  // While a monitor serves /gc, every collection pass ends with a fresh
  // published snapshot, so /gc served mid-run reflects the credit state
  // as of the last quiescence or resend pass.
  if (gc_publishing()) publish_gc_snapshot();
  return queued;
}

void Site::publish_gc_snapshot() {
  auto snap = std::make_shared<const vm::Machine::GcSnapshot>(
      machine_.gc_snapshot());
  std::lock_guard<std::mutex> lk(snap_mu_);
  gc_snap_ = std::move(snap);
}

std::shared_ptr<const vm::Machine::GcSnapshot> Site::gc_snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return gc_snap_;
}

// ---------------------------------------------------------------------
// Inbound packets
// ---------------------------------------------------------------------

void Site::handle_packet(const PacketHeader& h, Reader& r,
                         std::size_t size) {
  switch (h.type) {
    case MsgType::kShipMsg: {
      const std::uint64_t heap_id = r.u64();
      const std::string label = r.str();
      auto args = unmarshal_values(machine_, r);
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kShipMsgIn, h.trace_id, size);
      if (flight_ != nullptr && h.trace_id != 0)
        flight_->on_complete(h.trace_id, now_ns());
      if (slo_ != nullptr && h.trace_id != 0)
        slo_->on_complete(h.trace_id, now_ns());
      machine_.deliver_message(heap_id, label, std::move(args));
      ++mobility_.msgs_received;
      return;
    }
    case MsgType::kShipObj: {
      const std::uint64_t heap_id = r.u64();
      vm::SegmentGuid root{};
      auto pool = read_closure(r, root);
      const std::uint32_t slot = machine_.link(root, pool);
      auto env = unmarshal_values(machine_, r);
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kShipObjIn, h.trace_id, size);
      if (flight_ != nullptr && h.trace_id != 0)
        flight_->on_complete(h.trace_id, now_ns());
      if (slo_ != nullptr && h.trace_id != 0)
        slo_->on_complete(h.trace_id, now_ns());
      machine_.deliver_object(heap_id, slot, std::move(env));
      ++mobility_.objs_received;
      return;
    }
    case MsgType::kFetchReq: {
      const std::uint64_t heap_id = r.u64();
      const std::uint32_t req_node = r.u32();
      const std::uint32_t req_site = r.u32();
      const std::uint64_t req_id = r.u64();
      const vm::Value cls = machine_.resolve_exported_class(heap_id);
      const vm::ClassEntry& entry = machine_.class_entry(cls.idx);
      const vm::Block& blk = machine_.block(entry.block);
      Writer w;
      // The reply reuses the request's trace id (and sampling decision),
      // so a FETCH shows as one causal chain: req -> served -> reply.
      write_header(w, MsgType::kFetchRep, req_site, h.trace_id, h.sampled);
      w.u64(req_id);
      std::vector<vm::Segment> closure;
      machine_.collect_closure(blk.seg, closure);
      write_closure(w, closure);
      w.u32(entry.cls);
      // The requester becomes the holder of any credit the reply mints.
      machine_.set_credit_peer(req_node);
      marshal_values(machine_, blk.env, w);
      auto reply = w.take();
      packet_bytes_.observe(static_cast<double>(reply.size()));
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kFetchServed, h.trace_id, reply.size());
      // The serving side of the FETCH: close the server-side ledger
      // record (opened by the transport's recv hook) into the execute
      // stage; the requester's e2e closes on the kFetchRep below.
      if (slo_ != nullptr && h.trace_id != 0)
        slo_->on_served(h.trace_id, now_ns());
      send_packet(req_node, std::move(reply));
      ++mobility_.fetch_served;
      return;
    }
    case MsgType::kFetchRep: {
      const std::uint64_t req_id = r.u64();
      vm::SegmentGuid root{};
      auto pool = read_closure(r, root);
      const std::uint32_t cls_idx = r.u32();
      auto env = unmarshal_values(machine_, r);
      auto rit = fetch_by_req_.find(req_id);
      if (rit == fetch_by_req_.end())
        throw DecodeError("fetch reply for unknown request");
      const vm::NetRef ref = rit->second.cls;
      const std::uint64_t arrived = now_ns();
      if (arrived > rit->second.issued_ns)
        fetch_rtt_us_.observe(
            static_cast<double>(arrived - rit->second.issued_ns) / 1e3);
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kFetchReply, h.trace_id, size);
      if (flight_ != nullptr && h.trace_id != 0)
        flight_->on_complete(h.trace_id, arrived);
      if (slo_ != nullptr && h.trace_id != 0)
        slo_->on_complete(h.trace_id, arrived);
      fetch_by_req_.erase(rit);
      const std::uint32_t slot = machine_.link(root, pool);
      const std::uint32_t block = machine_.make_block(slot, std::move(env));
      const vm::Value cls = machine_.make_class_value(block, cls_idx);
      if (fetch_cache_enabled_) class_cache_[ref] = cls;
      auto pit = pending_fetch_.find(ref);
      if (pit != pending_fetch_.end()) {
        for (auto& args : pit->second)
          machine_.instantiate_class(cls, std::move(args));
        pending_fetch_.erase(pit);
      }
      return;
    }
    case MsgType::kNsReply: {
      const std::uint64_t token = r.u64();
      const bool ok = r.boolean();
      const vm::NetRef ref = read_netref(r);
      const std::string sig = r.str();
      // The credit share the name service carved off its held balance
      // for this importer (0: a weak handle).
      const std::uint64_t credit = r.u64();
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kNsReply, h.trace_id, token);
      // A reply synthesized from the lease cache must not re-fill it
      // (that would renew the lease without authority).
      const bool from_cache = cache_tokens_.erase(token) > 0;
      if (!ok) {
        record_error(name_ + ": import kind mismatch for token " +
                     std::to_string(token));
        if (flight_ != nullptr && h.trace_id != 0)
          flight_->promote(h.trace_id, obs::FlightRecorder::Reason::kError);
        return;  // the frame stays parked; the network reports a stall
      }
      if (lease_cache_ != nullptr && !from_cache) {
        if (auto kit = import_token_keys_.find(token);
            kit != import_token_keys_.end())
          lease_cache_->store(kit->second.first, kit->second.second, ref, sig,
                              obs::trace_now_ns());
      }
      // Dynamic half of the combined type-checking scheme: if the import
      // site declared an expected signature, it must match the exporter's.
      if (auto kit = import_token_keys_.find(token);
          kit != import_token_keys_.end()) {
        auto eit = import_sigs_.find(kit->second);
        if (eit != import_sigs_.end() && !eit->second.empty() &&
            !sig.empty() && eit->second != sig &&
            !types::compatible(eit->second, sig)) {
          record_error(name_ + ": type mismatch importing " +
                       kit->second.second + " from " + kit->second.first +
                       ": expected " + eit->second + ", exporter has " + sig);
          if (flight_ != nullptr && h.trace_id != 0)
            flight_->promote(h.trace_id, obs::FlightRecorder::Reason::kError);
          import_token_keys_.erase(kit);
          return;
        }
        import_token_keys_.erase(kit);
      }
      vm::Value v;
      if (ref.owned_by(node_id_, site_id_)) {
        v = ref.kind == vm::NetRef::Kind::kChan
                ? machine_.resolve_exported_chan(ref.heap_id)
                : machine_.resolve_exported_class(ref.heap_id);
        if (credit != 0)
          machine_.return_export_credit(ref.kind, ref.heap_id, credit);
      } else {
        v = vm::Value::make_netref(machine_.intern_netref_credit(ref, credit));
      }
      machine_.resume_import(token, v);
      return;
    }
    case MsgType::kRelease: {
      // REL: a releaser's new cumulative released-credit total for one of
      // this site's export-table entries. Idempotent (max-merge), so
      // duplicated or reordered deliveries are safely ignored.
      const vm::NetRef ref = read_netref(r);
      const std::uint32_t rel_node = r.u32();
      const std::uint32_t rel_site = r.u32();
      const std::uint64_t cum = r.u64();
      ++mobility_.gc_rel_received;
      if (ring_.should_record(h.sampled))
        ring_.record(obs::EventType::kRelIn, h.trace_id, cum);
      const auto res =
          machine_.apply_release(ref.kind, ref.heap_id, rel_node, rel_site,
                                 cum);
      if (res == vm::Machine::ReleaseResult::kStale && flight_ != nullptr &&
          h.trace_id != 0)
        flight_->promote(h.trace_id,
                         obs::FlightRecorder::Reason::kRelAnomaly);
      return;
    }
    case MsgType::kPeerDown: {
      // A failure detector confirmed a node dead. Write off every unit
      // of export credit attributed to it (the synthetic release makes
      // drained entries reclaimable) and stop sending it RELs.
      const std::uint32_t dead = read_peer_down(r);
      dead_peers_.insert(dead);
      machine_.write_off_node(dead);
      ++mobility_.peers_down;
      return;
    }
    case MsgType::kCreditMoved: {
      // The name service moved part of its (unattributed) held credit
      // for one of our exports to a new holder; charge that node so a
      // future write-off can forgive it.
      const CreditMoved cm = read_credit_moved(r);
      if (cm.ref.owned_by(node_id_, site_id_))
        machine_.attribute_export_credit(cm.ref.kind, cm.ref.heap_id,
                                         cm.to_node, cm.amount);
      return;
    }
    case MsgType::kNsExport:
    case MsgType::kNsLookup:
    case MsgType::kNsUnregister:
    case MsgType::kNsInvalidate:
      throw DecodeError("name-service packet routed to a site");
  }
  throw DecodeError("unknown packet type");
}

}  // namespace dityco::core
