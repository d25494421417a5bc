#include "core/network.hpp"
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "compiler/codegen.hpp"
#include "types/infer.hpp"
#include "compiler/parser.hpp"

namespace dityco::core {

Network::Network(Config cfg)
    : cfg_(cfg),
      metrics_(std::make_unique<obs::Registry>()),
      ns_router_(std::make_unique<ns::ShardRouter>(1, cfg.ns_replicas)) {
  // Audit-plane counters live in LiveStatus (heap, survives moves); the
  // cells are atomic so the collector is live-safe.
  LiveStatus* ls = live_.get();
  audit_reg_ = metrics_->add_collector([ls](obs::Collector& c) {
    c.counter("gc_audits", ls->gc_audits);
    c.counter("gc_audit_imbalance", ls->gc_audit_imbalance);
  });
}

Network::~Network() {
  // Stop transport background machinery (the TCP I/O thread) before any
  // member it could race with is torn down; also releases senders
  // blocked on backpressure.
  if (transport_) transport_->shutdown();
}

Node& Network::add_node() {
  if (transport_)
    throw std::logic_error("cannot add nodes after the network started");
  const auto count = static_cast<std::uint32_t>(nodes_.size());
  // A multiprocess TCP network hosts one node whose id is the
  // process-global node id, not a local ordinal, and takes the
  // fleet-wide shard count so every process computes the same map.
  // In-process, the map is clamped to the nodes that exist.
  const bool one_of_fleet =
      cfg_.transport == TransportKind::kTcp && cfg_.tcp.multiprocess;
  const std::uint32_t id = one_of_fleet ? count + cfg_.tcp.self : count;
  ns_router_->grow(one_of_fleet ? cfg_.ns_shards
                                : std::min(cfg_.ns_shards, count + 1));
  nodes_.push_back(std::make_unique<Node>(
      id, *ns_router_, cfg_.ns_lease_ms * 1'000'000ull, metrics_.get()));
  NameService& slice = nodes_.back()->name_service();
  // Every slice knows every site's location in advance (paper §5);
  // which slice answers a given lookup is the router's business.
  for (const auto& n : nodes_)
    for (const auto& site : n->sites())
      slice.register_site(site->name(), n->id(), site->site_id());
  if (trace_capacity_ > 0)
    nodes_.back()->enable_tracing(trace_capacity_, sample_every_,
                                  sample_seed_);
  if (flight_) nodes_.back()->set_flight(flight_.get());
  if (slo_) nodes_.back()->set_slo(slo_.get());
  if (prof_period_ > 0) nodes_.back()->enable_profiling(prof_period_);
  return *nodes_.back();
}

void Network::enable_tracing(std::size_t capacity, std::uint64_t sample_every,
                             std::uint64_t sample_seed) {
  trace_capacity_ = capacity;
  sample_every_ = sample_every;
  sample_seed_ = sample_seed;
  for (auto& n : nodes_)
    n->enable_tracing(capacity, sample_every, sample_seed);
  // Socket-level hops record into transport-owned rings with the same
  // sampling, so one trace id lines up from site to wire to peer.
  for (net::TcpTransport* t : tcp_parts()) {
    t->enable_trace(capacity, sample_every, sample_seed);
    if (flight_) t->set_trace_record_all(true);
  }
}

void Network::enable_flight(const obs::FlightPolicy& policy) {
  // The recorder harvests promoted events from the rings, so retention
  // without tracing would have nothing to keep.
  if (trace_capacity_ == 0) enable_tracing();
  if (!flight_) {
    flight_ = std::make_unique<obs::FlightRecorder>();
    obs::FlightRecorder* f = flight_.get();
    flight_reg_ = metrics_->add_collector([f](obs::Collector& c) {
      using R = obs::FlightRecorder::Reason;
      for (R r : {R::kSlow, R::kError, R::kStarved, R::kRelAnomaly,
                  R::kNetwork})
        c.counter(std::string("flight_promoted{reason=\"") +
                      obs::FlightRecorder::reason_name(r) + "\"}",
                  f->promoted_count(r));
      c.counter("flight_completions", f->completions());
      c.counter("flight_evicted", f->evicted());
      c.counter("flight_duplicates", f->duplicates());
      c.counter("flight_index_rebuilds", f->index_rebuilds());
      c.histogram("flight_latency_us", f->latency_snapshot());
    });
  }
  flight_->configure(policy);
  if (slo_) slo_->set_flight(flight_.get());
  for (auto& n : nodes_) n->set_flight(flight_.get());
  for (net::TcpTransport* t : tcp_parts()) wire_tcp_flight(*t);
}

void Network::enable_slo(const obs::SloPlane::Config& cfg) {
  // The ledger keys on propagated trace ids, which only exist while
  // tracing is on (fresh_trace_id returns 0 otherwise).
  if (trace_capacity_ == 0) enable_tracing();
  if (!slo_) {
    slo_ = std::make_unique<obs::SloPlane>();
    obs::SloPlane* s = slo_.get();
    slo_reg_ = metrics_->add_collector([s](obs::Collector& c) {
      c.counter("slo_requests_tracked", s->tracked());
      c.counter("slo_requests_completed", s->completed());
      c.counter("slo_requests_executed", s->executed());
      c.counter("slo_violations", s->violations());
      c.counter("slo_requests_expired", s->expired());
      c.counter("slo_requests_dropped", s->dropped());
      c.counter("slo_state_transitions", s->transitions_total());
      c.gauge("slo_inflight", static_cast<std::int64_t>(s->inflight()));
      c.gauge("slo_state", static_cast<std::int64_t>(s->state()));
      const auto v = s->burn(obs::trace_now_ns());
      c.gauge("slo_burn_short_milli",
              static_cast<std::int64_t>(v.short_w.burn * 1000.0));
      c.gauge("slo_burn_long_milli",
              static_cast<std::int64_t>(v.long_w.burn * 1000.0));
      using Op = obs::SloPlane::Op;
      for (Op op : {Op::kMsg, Op::kObj, Op::kFetch}) {
        const auto snap = s->e2e_snapshot(op);
        if (snap.empty()) continue;
        const std::string lbl =
            std::string("{op=\"") + obs::SloPlane::op_name(op) + "\"}";
        c.gauge("slo_e2e_p50_us" + lbl,
                static_cast<std::int64_t>(snap.quantile_us(0.50)));
        c.gauge("slo_e2e_p99_us" + lbl,
                static_cast<std::int64_t>(snap.quantile_us(0.99)));
      }
    });
  }
  slo_->configure(cfg);
  if (flight_) slo_->set_flight(flight_.get());
  for (auto& n : nodes_) n->set_slo(slo_.get());
  for (net::TcpTransport* t : tcp_parts()) wire_tcp_slo(*t);
}

std::string Network::slo_json() {
  if (!slo_) return "{}";
  // Render on the ledger's own time base: under the sim driver the
  // sites stamped it with virtual time, which the daemon rings carry.
  std::uint64_t now = obs::trace_now_ns();
  if (cfg_.mode == Mode::kSim && !nodes_.empty())
    now = nodes_.front()->daemon_ring().now_ns();
  return slo_->json(now);
}

std::vector<net::TcpTransport*> Network::tcp_parts() const {
  std::vector<net::TcpTransport*> out;
  if (!transport_) return out;
  if (auto* t = dynamic_cast<net::TcpTransport*>(transport_.get())) {
    out.push_back(t);
  } else if (auto* m =
                 dynamic_cast<net::TcpMeshTransport*>(transport_.get())) {
    for (std::size_t i = 0; i < m->parts_count(); ++i)
      out.push_back(&m->part(i));
  }
  return out;
}

void Network::wire_tcp_flight(net::TcpTransport& t) {
  // The recorder needs every traced socket hop available for promotion,
  // not just the 1-in-N sampled set; /trace re-filters (collect_traces).
  t.set_trace_record_all(true);
  flight_->attach_ring(&t.trace_ring());
  obs::FlightRecorder* f = flight_.get();
  // Hook runs on the I/O thread under the transport lock; promote() only
  // takes the recorder's own mutex and never calls back into the
  // transport, so the lock order is one-way.
  t.set_peer_event_hook([f](net::TcpTransport::PeerEvent, std::uint32_t,
                            std::uint64_t trace_id) {
    f->promote(trace_id, obs::FlightRecorder::Reason::kNetwork);
  });
}

void Network::wire_tcp_slo(net::TcpTransport& t) {
  obs::SloPlane* s = slo_.get();
  // Hook runs under the transport lock; the plane only takes its own
  // mutex and never calls back into the transport (one-way lock order,
  // same shape as the flight recorder's peer-event hook).
  t.set_slo_hook([s](std::uint64_t trace_id, bool outbound,
                     std::uint64_t now_ns) {
    if (outbound)
      s->on_tcp_send(trace_id, now_ns);
    else
      s->on_tcp_recv(trace_id, now_ns);
  });
}

void Network::enable_profiling(std::uint64_t period) {
  prof_period_ = period;
  for (auto& n : nodes_) n->enable_profiling(period);
}

std::string Network::profile_folded() const {
  std::string out;
  for (const auto& n : nodes_)
    for (const auto& s : n->sites()) out += s->machine().profile_folded();
  return out;
}

std::string Network::flight_json() const {
  std::vector<obs::ThreadTrace> lines;
  if (flight_) {
    // Regroup the promoted events into the (node, site) thread lines the
    // Chrome exporter expects; flow arrows re-emerge from the trace ids.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> index;
    auto site_name = [this](std::uint32_t node, std::uint32_t site) {
      if (site == obs::kDaemonSite)
        return "node" + std::to_string(node) + "/tycod";
      for (const auto& n : nodes_)
        if (n->id() == node)
          for (const auto& s : n->sites())
            if (s->site_id() == site) return s->name();
      return "node" + std::to_string(node) + "/site" + std::to_string(site);
    };
    for (const auto& entry : flight_->snapshot()) {
      for (const auto& ev : entry.events) {
        const auto key = std::make_pair(ev.node, ev.site);
        auto it = index.find(key);
        if (it == index.end()) {
          obs::ThreadTrace tt;
          tt.pid = ev.node;
          tt.tid = ev.site;
          tt.name = site_name(ev.node, ev.site);
          it = index.emplace(key, lines.size()).first;
          lines.push_back(std::move(tt));
        }
        lines[it->second].events.push_back(ev);
      }
    }
  }
  return obs::chrome_trace_json(lines);
}

// ---------------------------------------------------------------------
// TyCOmon
// ---------------------------------------------------------------------

std::uint16_t Network::start_monitor(std::uint16_t port,
                                     const std::string& bind_addr) {
  if (monitor_) return monitor_->port();
  auto srv = std::make_unique<obs::MonitorServer>();
  using Resp = obs::MonitorServer::Response;
  // A scrape during run() must only touch live-safe state: the registry
  // filters out collectors that read plain fields, and ring snapshots
  // are concurrent-safe by construction. The scrape_mu lock pins the
  // at-rest decision: run() cannot start executors while a full
  // snapshot is being taken.
  srv->route("/metrics", [this] {
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    const bool live = live_->running.load(std::memory_order_relaxed);
    return Resp{200, "text/plain; version=0.0.4; charset=utf-8",
                metrics_->expose_text(live)};
  });
  srv->route("/metrics.json", [this] {
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    const bool live = live_->running.load(std::memory_order_relaxed);
    return Resp{200, "application/json", metrics_->expose_json(live)};
  });
  srv->route("/trace", [this] {
    return Resp{200, "application/json", trace_json()};
  });
  srv->route("/healthz", [this] {
    return Resp{200, "application/json", health_json()};
  });
  srv->route("/peers", [this] {
    return Resp{200, "application/json", peers_json()};
  });
  // The audit plane: at rest these build fresh snapshots under scrape_mu
  // (run() cannot start executors mid-build); while running they serve
  // the owner threads' last published snapshots.
  srv->route("/gc", [this] {
    return Resp{200, "application/json", gc_json()};
  });
  srv->route("/names", [this] {
    return Resp{200, "application/json", names_json()};
  });
  // The flight buffer and the profiler tables are mutex/atomic-guarded,
  // so both endpoints are safe mid-run.
  srv->route("/flight", [this] {
    return Resp{200, "application/json", flight_json()};
  });
  srv->route("/profile", [this] {
    return Resp{200, "text/plain; charset=utf-8", profile_folded()};
  });
  // The SLO plane is mutex/atomic-guarded, so /slo is safe mid-run.
  srv->route("/slo", [this] {
    return Resp{200, "application/json", slo_json()};
  });
  if (srv->start(port, bind_addr) == 0) return 0;
  monitor_ = std::move(srv);
  // Mid-run /gc serves the snapshots executors publish; without a
  // monitor nothing reads them, so the run path builds none.
  set_gc_publishing(true);
  // A transport built before the monitor (late start_monitor) has been
  // gossiping monitor_port 0; publish the real port to connected peers.
  if (auto* t = dynamic_cast<net::TcpTransport*>(transport_.get()))
    t->set_monitor_port(monitor_->port());
  return monitor_->port();
}

namespace {
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}
}  // namespace

std::string Network::peers_json() const {
  std::string out = "{\"self\":{";
  const std::uint32_t self_node =
      cfg_.transport == TransportKind::kTcp && cfg_.tcp.multiprocess
          ? cfg_.tcp.self
          : 0;
  out += "\"node\":" + std::to_string(self_node);
  net::TcpTransport* tcp = nullptr;
  // Never force the lazy transport factory from a scrape: building it
  // early would make a later add_node() throw.
  for (net::TcpTransport* t : tcp_parts())
    if (t->config().self == self_node) tcp = t;
  if (tcp)
    out += ",\"hostport\":\"" + obs::json_escape(tcp->advertised_hostport()) +
           "\"";
  out += ",\"monitor\":" + std::to_string(monitor_ ? monitor_->port() : 0);
  if (tcp) {
    const auto ps = tcp->pool_stats();
    out += ",\"pool\":{\"hits\":" + std::to_string(ps.hits);
    out += ",\"misses\":" + std::to_string(ps.misses);
    out += ",\"releases\":" + std::to_string(ps.releases);
    out += ",\"trimmed\":" + std::to_string(ps.trimmed);
    out += ",\"outstanding\":" + std::to_string(ps.outstanding);
    out += ",\"free_buffers\":" + std::to_string(ps.free_buffers);
    out += ",\"free_bytes\":" + std::to_string(ps.free_bytes);
    out += "}";
  }
  out += "},\"peers\":[";
  if (tcp) {
    bool first = true;
    for (const auto& pi : tcp->peer_info()) {
      if (!first) out += ",";
      first = false;
      const char* state = pi.dead          ? "dead"
                          : pi.suspected   ? "suspected"
                          : pi.connected   ? "connected"
                          : pi.connecting  ? "connecting"
                                           : "idle";
      out += "{\"node\":" + std::to_string(pi.node);
      out += ",\"hostport\":\"" + obs::json_escape(pi.hostport) + "\"";
      out += ",\"monitor\":" + std::to_string(pi.monitor_port);
      out += ",\"state\":\"" + std::string(state) + "\"";
      out += ",\"phi\":" + fmt_double(pi.phi);
      out += ",\"last_heard_age_ms\":" + fmt_double(pi.last_heard_age_ms);
      out += ",\"queue_bytes\":" + std::to_string(pi.queue_bytes);
      out += ",\"queued_frames\":" + std::to_string(pi.queued_frames);
      out += ",\"reconnects\":" + std::to_string(pi.reconnects);
      out += ",\"backoff_ms\":" + std::to_string(pi.backoff_ms);
      out += ",\"rtt_us\":" + std::to_string(pi.last_rtt_us);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string owner_ref_json(const vm::NetRef& r) {
  return "\"owner_node\":" + std::to_string(r.node) +
         ",\"owner_site\":" + std::to_string(r.site) +
         ",\"kind\":" + std::to_string(static_cast<int>(r.kind)) +
         ",\"id\":" + std::to_string(r.heap_id);
}

std::string gc_snapshot_json(const vm::Machine::GcSnapshot& g,
                             std::uint64_t now_ns) {
  std::string out = "{\"name\":\"" + obs::json_escape(g.name) + "\"";
  out += ",\"node\":" + std::to_string(g.node);
  out += ",\"site\":" + std::to_string(g.site);
  out += ",\"stale\":false";
  out += ",\"live_channels\":" + std::to_string(g.live_channels);
  out += ",\"free_channels\":" + std::to_string(g.free_channels);
  out += ",\"live_netrefs\":" + std::to_string(g.live_netrefs);
  out += ",\"free_netrefs\":" + std::to_string(g.free_netrefs);
  out += ",\"outstanding\":" + std::to_string(g.outstanding);
  out += ",\"held\":" + std::to_string(g.held);
  out += ",\"exports\":[";
  bool first = true;
  for (const auto& e : g.exports) {
    if (!first) out += ",";
    first = false;
    out += "{\"kind\":" + std::to_string(static_cast<int>(e.kind));
    out += ",\"id\":" + std::to_string(e.heap_id);
    out += ",\"local\":" + std::to_string(e.local);
    out += ",\"minted\":" + std::to_string(e.minted);
    out += ",\"returned\":" + std::to_string(e.returned);
    out += ",\"released\":" + std::to_string(e.released);
    out += ",\"outstanding\":" + std::to_string(e.outstanding);
    out += ",\"pins\":" + std::to_string(e.pins);
    // Leak age: the scrape's clock minus the ledger's last movement.
    // A stale snapshot still ages correctly — touched_ns is absolute
    // steady time within this process.
    const double age_ms =
        e.touched_ns == 0 || now_ns < e.touched_ns
            ? 0.0
            : static_cast<double>(now_ns - e.touched_ns) / 1e6;
    out += ",\"age_ms\":" + fmt_double(age_ms);
    out += ",\"trace\":" + std::to_string(e.last_trace);
    out += ",\"releasers\":[";
    for (std::size_t i = 0; i < e.releasers.size(); ++i) {
      if (i) out += ",";
      out += "[" + std::to_string(e.releasers[i].first >> 32) + "," +
             std::to_string(e.releasers[i].first & 0xffffffffu) + "," +
             std::to_string(e.releasers[i].second) + "]";
    }
    out += "],\"debt\":[";
    for (std::size_t i = 0; i < e.debt.size(); ++i) {
      if (i) out += ",";
      out += "[" + std::to_string(e.debt[i].first) + "," +
             std::to_string(e.debt[i].second) + "]";
    }
    out += "]}";
  }
  out += "],\"imports\":[";
  first = true;
  for (const auto& h : g.imports) {
    if (!first) out += ",";
    first = false;
    out += "{" + owner_ref_json(h.ref) +
           ",\"credit\":" + std::to_string(h.credit) + "}";
  }
  out += "],\"releases\":[";
  first = true;
  for (const auto& r : g.releases) {
    if (!first) out += ",";
    first = false;
    out += "{" + owner_ref_json(r.ref) + ",\"cum\":" + std::to_string(r.cum) +
           "}";
  }
  out += "]}";
  return out;
}

std::string ns_snapshot_json(const NameService::Snapshot& s,
                             const std::string& scope) {
  std::string out = "{\"scope\":\"" + obs::json_escape(scope) + "\"";
  out += ",\"home_node\":" + std::to_string(s.home_node);
  out += ",\"stale\":false";
  out += ",\"parked\":" + std::to_string(s.parked);
  out += ",\"sites\":[";
  bool first = true;
  for (const auto& row : s.sites) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + obs::json_escape(row.name) +
           "\",\"node\":" + std::to_string(row.node) +
           ",\"site\":" + std::to_string(row.site) + "}";
  }
  out += "],\"ids\":[";
  first = true;
  for (const auto& row : s.ids) {
    if (!first) out += ",";
    first = false;
    out += "{\"site\":\"" + obs::json_escape(row.site) + "\"";
    out += ",\"name\":\"" + obs::json_escape(row.name) + "\"";
    out += "," + owner_ref_json(row.ref);
    out += ",\"type\":\"" + obs::json_escape(row.type_sig) + "\"";
    out += ",\"credit\":" + std::to_string(row.credit);
    out += ",\"gc\":";
    out += row.gc ? "true" : "false";
    out += ",\"waiters\":" + std::to_string(row.waiters);
    out += "}";
  }
  out += "],\"releases\":[";
  first = true;
  for (const auto& r : s.releases) {
    if (!first) out += ",";
    first = false;
    out += "{" + owner_ref_json(r.ref) + ",\"cum\":" + std::to_string(r.cum) +
           "}";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string Network::gc_json() const {
  std::lock_guard<std::mutex> lk(live_->scrape_mu);
  const bool running = live_->running.load(std::memory_order_relaxed);
  const std::uint64_t now_ns = obs::trace_now_ns();
  std::string out = "{\"running\":";
  out += running ? "true" : "false";
  out += ",\"fresh\":";
  out += running ? "false" : "true";
  // Frames queued in this node's transport may carry credit no ledger
  // shows yet: the audit confirms a leak only once no node is running
  // and every node reads 0. Read at rest only (SimTransport's queues
  // belong to the sim loop).
  if (!running && transport_)
    out += ",\"in_flight\":" + std::to_string(transport_->in_flight());
  out += ",\"steady_now_ns\":" + std::to_string(now_ns);
  out += ",\"wall_now_us\":" + std::to_string(wall_now_us());
  out += ",\"sites\":[";
  bool first = true;
  for (const auto& n : nodes_) {
    for (const auto& s : n->sites()) {
      if (!first) out += ",";
      first = false;
      if (!running) {
        // At rest under scrape_mu: the machine is unowned, build fresh.
        out += gc_snapshot_json(s->machine().gc_snapshot(), now_ns);
      } else if (auto snap = s->gc_snapshot()) {
        out += gc_snapshot_json(*snap, now_ns);
      } else {
        out += "{\"name\":\"" + obs::json_escape(s->name()) +
               "\",\"node\":" + std::to_string(n->id()) +
               ",\"site\":" + std::to_string(s->site_id()) +
               ",\"stale\":true}";
      }
    }
  }
  out += "]}";
  return out;
}

std::string Network::names_json() const {
  std::lock_guard<std::mutex> lk(live_->scrape_mu);
  const bool running = live_->running.load(std::memory_order_relaxed);
  std::string out = "{\"running\":";
  out += running ? "true" : "false";
  out += ",\"fresh\":";
  out += running ? "false" : "true";
  out += ",\"services\":[";
  bool first = true;
  auto emit = [&](const NameService& svc, const std::string& scope) {
    if (!first) out += ",";
    first = false;
    if (!running) {
      out += ns_snapshot_json(svc.snapshot(), scope);
    } else if (auto snap = svc.last_snapshot()) {
      out += ns_snapshot_json(*snap, scope);
    } else {
      out += "{\"scope\":\"" + obs::json_escape(scope) +
             "\",\"home_node\":" + std::to_string(svc.home_node()) +
             ",\"stale\":true}";
    }
  };
  // One scope per hosted shard slice: primaries carry credit (gc=true),
  // follower copies are weak — the fleet audit joins only the
  // credit-bearing rows, so slices federate without double count. Nodes
  // outside the shard map serve no keys and are left out.
  const std::uint32_t shards = ns_router_->shards();
  for (const auto& n : nodes_)
    if (n->id() < shards)
      emit(n->name_service(), "shard" + std::to_string(n->id()));
  out += "]";
  out += ",\"sharding\":{\"shards\":" + std::to_string(shards) +
         ",\"replicas\":" + std::to_string(ns_router_->replicas()) +
         ",\"epoch\":" + std::to_string(ns_router_->epoch()) +
         ",\"generation\":" + std::to_string(ns_router_->generation()) +
         ",\"dead\":[";
  bool fd = true;
  for (std::uint32_t d : ns_router_->dead()) {
    if (!fd) out += ",";
    fd = false;
    out += std::to_string(d);
  }
  out += "]}";
  out += ",\"caches\":[";
  bool fc = true;
  for (const auto& n : nodes_) {
    const ns::LeaseCache* c = n->lease_cache();
    if (c == nullptr) continue;
    if (!fc) out += ",";
    fc = false;
    out += "{\"node\":" + std::to_string(n->id()) +
           ",\"entries\":" + std::to_string(c->size()) +
           ",\"hits\":" + std::to_string(c->hits()) +
           ",\"misses\":" + std::to_string(c->misses()) +
           ",\"invalidations\":" + std::to_string(c->invalidations()) +
           ",\"stale_served\":" + std::to_string(c->stale_served()) +
           ",\"evictions\":" + std::to_string(c->evictions()) + "}";
  }
  out += "]}";
  return out;
}

obs::fleet::AuditReport Network::self_audit(bool include_fleet) {
  namespace fleet = obs::fleet;
  std::vector<fleet::Json> gc_docs, names_docs;
  std::vector<std::uint32_t> expected;
  auto add_doc = [](std::vector<fleet::Json>& docs, const std::string& body) {
    fleet::Json doc;
    if (!body.empty() && fleet::parse_json(body, doc))
      docs.push_back(std::move(doc));
  };
  add_doc(gc_docs, gc_json());
  add_doc(names_docs, names_json());
  std::set<std::uint32_t> local;
  for (const auto& n : nodes_) {
    local.insert(n->id());
    expected.push_back(n->id());
  }
  if (include_fleet && monitor_) {
    // Peers gossip their TyCOmon ports; walk them from our own monitor
    // so the audit joins every reachable node's ledgers.
    const std::string seed = "127.0.0.1:" + std::to_string(monitor_->port());
    for (const fleet::NodeEndpoint& ep : fleet::discover(seed)) {
      if (local.count(ep.node)) continue;
      expected.push_back(ep.node);
      add_doc(gc_docs, fleet::http_get(ep.host, ep.monitor, "/gc"));
      add_doc(names_docs, fleet::http_get(ep.host, ep.monitor, "/names"));
    }
  }
  fleet::AuditReport rep = fleet::audit(gc_docs, names_docs, expected);
  ++live_->gc_audits;
  if (!rep.balanced) {
    live_->gc_audit_imbalance.inc(rep.offenders.size() +
                                  rep.orphan_imports.size() +
                                  rep.ns_mismatches.size());
    // Promote the minting traces of the offending entries so the flight
    // recorder retains the operations that leaked the credit.
    if (flight_)
      for (const auto& off : rep.offenders)
        if (off.trace != 0)
          flight_->promote(off.trace,
                           obs::FlightRecorder::Reason::kRelAnomaly);
  }
  return rep;
}

std::size_t Network::heal_releases() {
  {
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    if (live_->running.load(std::memory_order_relaxed)) return 0;
    live_->running.store(true, std::memory_order_relaxed);
  }
  const std::size_t queued = gc_pass(/*final=*/false, /*resend=*/true);
  Result res;
  sequential_drain(transport(), res);
  {
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    live_->running.store(false, std::memory_order_relaxed);
  }
  return queued;
}

void Network::stop_monitor() {
  monitor_.reset();
  set_gc_publishing(false);
}

void Network::set_gc_publishing(bool on) {
  for (auto& n : nodes_)
    for (auto& s : n->sites()) s->set_gc_publishing(on);
}

std::string Network::health_json() const {
  // Everything below is either atomic or (in_flight, gated on sim mode)
  // only read at rest; the lock makes the running-flag read and that
  // gate atomic against run()'s transitions.
  std::lock_guard<std::mutex> lk(live_->scrape_mu);
  const bool running = live_->running.load(std::memory_order_relaxed);
  const char* outcome = "never_ran";
  if (running) {
    outcome = "running";
  } else {
    switch (live_->outcome.load(std::memory_order_relaxed)) {
      case 1: outcome = "quiescent"; break;
      case 2: outcome = "stalled"; break;
      case 3: outcome = "budget_exhausted"; break;
      default: break;
    }
  }
  std::string out = "{\"mode\":\"";
  switch (cfg_.mode) {
    case Mode::kSequential: out += "sequential"; break;
    case Mode::kThreaded: out += "threaded"; break;
    case Mode::kSim: out += "sim"; break;
  }
  out += "\",\"running\":";
  out += running ? "true" : "false";
  out += ",\"outcome\":\"";
  out += outcome;
  out += "\",\"instructions\":" +
         std::to_string(live_->instructions.load(std::memory_order_relaxed));
  out += ",\"progress\":" +
         std::to_string(live_->progress.load(std::memory_order_relaxed));
  // SimTransport's queues are plain fields owned by the sim loop; only
  // report in-flight counts when no driver could be mutating them.
  if (transport_ && !(cfg_.mode == Mode::kSim && running))
    out += ",\"in_flight\":" + std::to_string(transport_->in_flight());
  out += ",\"sites\":[";
  bool first = true;
  for (const auto& n : nodes_) {
    for (const auto& s : n->sites()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + obs::json_escape(s->name()) + "\"";
      out += ",\"node\":" + std::to_string(n->id());
      out += ",\"incoming\":" + std::to_string(s->incoming_size());
      out += ",\"outgoing\":" + std::to_string(s->outgoing_size());
      out += ",\"failed\":";
      out += s->failed() ? "true" : "false";
      if (s->trace_ring().enabled()) {
        out += ",\"trace_recorded\":" +
               std::to_string(s->trace_ring().recorded());
        out += ",\"trace_dropped\":" +
               std::to_string(s->trace_ring().dropped());
      }
      out += "}";
    }
  }
  out += "]";
  // Per-peer transport state (the failure detector's live view): only on
  // TCP networks; peer_info() takes the transport lock briefly and is
  // safe mid-run. On an in-process mesh, part 0's view stands in.
  const std::vector<net::TcpTransport*> parts = tcp_parts();
  if (!parts.empty()) {
    out += ",\"peers\":[";
    bool pfirst = true;
    for (const auto& pi : parts.front()->peer_info()) {
      if (!pfirst) out += ",";
      pfirst = false;
      out += "{\"node\":" + std::to_string(pi.node);
      out += ",\"phi\":" + fmt_double(pi.phi);
      out += ",\"last_heard_age_ms\":" + fmt_double(pi.last_heard_age_ms);
      out += ",\"queue_bytes\":" + std::to_string(pi.queue_bytes);
      out += ",\"reconnects\":" + std::to_string(pi.reconnects);
      out += ",\"dead\":";
      out += pi.dead ? "true" : "false";
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::vector<obs::ThreadTrace> Network::collect_traces() const {
  std::vector<obs::ThreadTrace> out;
  // Tail retention runs the rings in record-all mode; /trace keeps its
  // 1-in-N contract by re-filtering to the sampled id set.
  const bool refilter = flight_ != nullptr && sample_every_ > 1;
  for (const auto& n : nodes_) {
    if (n->daemon_ring().enabled()) {
      obs::ThreadTrace tt;
      tt.name = "node" + std::to_string(n->id()) + "/tycod";
      tt.pid = n->id();
      tt.tid = obs::kDaemonSite;
      tt.events = n->daemon_ring().snapshot();
      if (refilter)
        std::erase_if(tt.events, [this](const obs::TraceEvent& e) {
          return e.trace_id != 0 &&
                 !obs::trace_id_sampled(e.trace_id, sample_every_,
                                        sample_seed_);
        });
      out.push_back(std::move(tt));
    }
    for (const auto& s : n->sites()) {
      if (!s->trace_ring().enabled()) continue;
      obs::ThreadTrace tt;
      tt.name = s->name();
      tt.pid = n->id();
      tt.tid = s->site_id();
      tt.events = s->trace_ring().snapshot();
      if (refilter)
        std::erase_if(tt.events, [this](const obs::TraceEvent& e) {
          return e.trace_id != 0 &&
                 !obs::trace_id_sampled(e.trace_id, sample_every_,
                                        sample_seed_);
        });
      out.push_back(std::move(tt));
    }
  }
  // Socket-level rings: one "tcp" line per endpoint, under the owning
  // node's process group.
  for (net::TcpTransport* t : tcp_parts()) {
    if (!t->trace_ring().enabled()) continue;
    obs::ThreadTrace tt;
    tt.name = "node" + std::to_string(t->config().self) + "/tcp";
    tt.pid = t->config().self;
    tt.tid = obs::kTcpSite;
    tt.events = t->trace_ring().snapshot();
    if (refilter)
      std::erase_if(tt.events, [this](const obs::TraceEvent& e) {
        return e.trace_id != 0 &&
               !obs::trace_id_sampled(e.trace_id, sample_every_,
                                      sample_seed_);
      });
    out.push_back(std::move(tt));
  }
  return out;
}

std::string Network::trace_json() const {
  // Anchor the steady-clock timeline to the wall clock at export time so
  // a fleet aggregator can rebase documents from different processes
  // onto one axis (ExportMeta in obs/export.hpp). Meaningless under the
  // sim driver's virtual time, but harmless — aggregation targets real
  // multiprocess runs.
  obs::ExportMeta meta;
  meta.has_anchor = true;
  meta.node = nodes_.empty() ? 0 : nodes_.front()->id();
  meta.steady_now_ns = obs::trace_now_ns();
  meta.wall_now_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return obs::chrome_trace_json(collect_traces(), meta);
}

Site& Network::add_site(std::size_t node_idx, const std::string& name) {
  if (find_site(name))
    throw std::logic_error("duplicate site name " + name);
  Node& home = *nodes_.at(node_idx);
  Site& s = home.add_site(name);
  for (const auto& n : nodes_)
    if (n.get() != &home)
      n->name_service().register_site(name, home.id(), s.site_id());
  if (monitor_) s.set_gc_publishing(true);
  return s;
}

Site* Network::find_site(const std::string& name) {
  for (auto& n : nodes_)
    for (auto& s : n->sites())
      if (s->name() == name) return s.get();
  return nullptr;
}

void Network::submit(const std::string& site_name, const calc::ProcPtr& prog) {
  Site* s = find_site(site_name);
  if (!s) throw std::logic_error("no such site: " + site_name);
  if (cfg_.typecheck) {
    types::InferResult tr = types::infer(prog);
    for (auto& [name, sig] : tr.exports) s->set_export_signature(name, sig);
    for (auto& req : tr.imports)
      s->expect_import_signature(req.site, req.name, req.signature);
  }
  s->submit(comp::compile(prog));
}

void Network::submit_source(const std::string& site_name,
                            std::string_view src) {
  submit(site_name, comp::parse_program(src));
}

void Network::submit_network_source(std::string_view src) {
  for (auto& [site, prog] : comp::parse_network(src)) submit(site, prog);
}

net::Transport& Network::transport() {
  if (!transport_) {
    if (cfg_.mode == Mode::kSim) {
      if (cfg_.transport == TransportKind::kTcp)
        throw std::logic_error(
            "TCP transport cannot run under the virtual-time sim driver");
      transport_ = std::make_unique<net::SimTransport>(nodes_.size(),
                                                       cfg_.link);
    } else if (cfg_.transport == TransportKind::kTcp) {
      // A monitor started before the transport (tycod's order) rides in
      // the hello/gossip frames so peers can federate scrapes.
      if (monitor_) cfg_.tcp.monitor_port = monitor_->port();
      if (cfg_.tcp.multiprocess) {
        auto t = std::make_unique<net::TcpTransport>(cfg_.tcp);
        // A confirmed-dead peer becomes a PEER-DOWN packet in our inbox,
        // routed like any delivery (GC write-off on executor threads).
        t->set_death_frame(
            [](std::uint32_t dead) { return make_peer_down(dead); });
        register_tcp_metrics(*t, "self");
        if (trace_capacity_ > 0)
          t->enable_trace(trace_capacity_, sample_every_, sample_seed_);
        if (flight_) wire_tcp_flight(*t);
        if (slo_) wire_tcp_slo(*t);
        transport_ = std::move(t);
      } else {
        auto mesh =
            std::make_unique<net::TcpMeshTransport>(nodes_.size(), cfg_.tcp);
        if (mesh->parts_count() > 0) register_tcp_metrics(mesh->part(0), "0");
        for (std::size_t i = 0; i < mesh->parts_count(); ++i) {
          if (trace_capacity_ > 0)
            mesh->part(i).enable_trace(trace_capacity_, sample_every_,
                                       sample_seed_);
          if (flight_) wire_tcp_flight(mesh->part(i));
          if (slo_) wire_tcp_slo(mesh->part(i));
        }
        transport_ = std::move(mesh);
      }
    } else {
      transport_ = std::make_unique<net::InProcTransport>(nodes_.size());
    }
    for (auto& n : nodes_) transport_->set_doorbell(n->id(), &n->doorbell());
  }
  return *transport_;
}

net::TcpTransport* Network::tcp_transport() {
  return dynamic_cast<net::TcpTransport*>(&transport());
}

void Network::register_tcp_metrics(net::TcpTransport& t,
                                   const std::string& label) {
  tcp_metrics_reg_ = metrics_->add_collector([&t, label](obs::Collector& c) {
    const std::string l = "{transport=\"" + label + "\"}";
    const auto& s = t.stats();
    c.counter("tcp_connects" + l, s.connects.load(std::memory_order_relaxed));
    c.counter("tcp_reconnects" + l,
              s.reconnects.load(std::memory_order_relaxed));
    c.counter("tcp_accepts" + l, s.accepts.load(std::memory_order_relaxed));
    c.counter("tcp_frames_out" + l,
              s.frames_out.load(std::memory_order_relaxed));
    c.counter("tcp_frames_in" + l,
              s.frames_in.load(std::memory_order_relaxed));
    c.counter("tcp_bytes_in" + l, s.bytes_in.load(std::memory_order_relaxed));
    c.counter("tcp_heartbeats_sent" + l,
              s.heartbeats_sent.load(std::memory_order_relaxed));
    c.counter("tcp_heartbeats_acked" + l,
              s.heartbeats_acked.load(std::memory_order_relaxed));
    c.counter("tcp_backpressure_waits" + l,
              s.backpressure_waits.load(std::memory_order_relaxed));
    c.counter("tcp_frames_dropped" + l,
              s.frames_dropped.load(std::memory_order_relaxed));
    c.counter("tcp_send_timeouts" + l,
              s.send_timeouts.load(std::memory_order_relaxed));
    c.counter("tcp_frames_filtered" + l,
              s.frames_filtered.load(std::memory_order_relaxed));
    c.counter("tcp_frames_malformed" + l,
              s.frames_malformed.load(std::memory_order_relaxed));
    c.counter("tcp_peers_suspected" + l,
              s.peers_suspected.load(std::memory_order_relaxed));
    c.counter("tcp_peers_dead" + l,
              s.peers_dead.load(std::memory_order_relaxed));
    c.gauge("tcp_connections" + l,
            static_cast<std::int64_t>(t.connected_peers()));
    c.gauge("tcp_queue_bytes" + l,
            static_cast<std::int64_t>(t.queued_bytes()));
    c.gauge("tcp_heartbeat_rtt_us" + l,
            static_cast<std::int64_t>(
                s.last_rtt_us.load(std::memory_order_relaxed)));
    // Coalescing: how many frames each writev() carried. A mean near 1
    // means the queue never builds up (latency-bound); higher means the
    // batching path is actually amortizing syscalls.
    c.counter("tcp_writev_calls" + l,
              s.writev_calls.load(std::memory_order_relaxed));
    c.counter("tcp_writev_frames" + l,
              s.writev_frames.load(std::memory_order_relaxed));
    // Buffer pool: hits vs. misses says whether steady state is
    // allocation-free; outstanding not draining to zero at shutdown is
    // a leak (the ASan job asserts this).
    const auto ps = t.pool_stats();
    c.counter("tcp_pool_hits" + l, ps.hits);
    c.counter("tcp_pool_misses" + l, ps.misses);
    c.counter("tcp_pool_releases" + l, ps.releases);
    c.counter("tcp_pool_trimmed" + l, ps.trimmed);
    c.gauge("tcp_pool_outstanding" + l,
            static_cast<std::int64_t>(ps.outstanding));
    c.gauge("tcp_pool_free_buffers" + l,
            static_cast<std::int64_t>(ps.free_buffers));
    c.gauge("tcp_pool_free_bytes" + l,
            static_cast<std::int64_t>(ps.free_bytes));
    // Path-telemetry distributions: where cross-node latency went.
    c.histogram("tcp_rtt_us" + l, s.rtt_us.snapshot());
    c.histogram("tcp_send_queue_bytes" + l, s.send_queue_bytes.snapshot());
    c.histogram("tcp_flush_frames_per_call" + l,
                s.flush_frames_per_call.snapshot());
    c.histogram("tcp_reconnect_backoff_ms" + l,
                s.reconnect_backoff_ms.snapshot());
    // Per-peer series (peer_info takes the transport lock briefly). Phi
    // is exported milli-scaled: the registry's gauges are integers and
    // the actionable range is ~0.5..12.
    for (const auto& pi : t.peer_info()) {
      const std::string pl = "{transport=\"" + label + "\",peer=\"" +
                             std::to_string(pi.node) + "\"}";
      c.gauge("tcp_peer_phi_milli" + pl,
              static_cast<std::int64_t>(pi.phi * 1000.0));
      c.gauge("tcp_peer_last_heard_age_ms" + pl,
              static_cast<std::int64_t>(pi.last_heard_age_ms));
      c.gauge("tcp_peer_queue_bytes" + pl,
              static_cast<std::int64_t>(pi.queue_bytes));
      c.gauge("tcp_peer_backoff_ms" + pl,
              static_cast<std::int64_t>(pi.backoff_ms));
      c.counter("tcp_peer_reconnects" + pl, pi.reconnects);
      c.histogram("tcp_peer_rtt_us" + pl, pi.rtt_us);
    }
  });
}

const std::vector<std::string>& Network::output(const std::string& site_name) {
  Site* s = find_site(site_name);
  if (!s) throw std::logic_error("no such site: " + site_name);
  return s->machine().output();
}

std::vector<std::string> Network::all_errors() const {
  std::vector<std::string> out = run_errors_;
  for (const auto& n : nodes_)
    for (const auto& s : n->sites()) {
      for (const auto& e : s->errors()) out.push_back(e);
      for (const auto& e : s->machine().errors()) out.push_back(e);
    }
  return out;
}

bool Network::anything_parked() const {
  for (const auto& n : nodes_) {
    if (n->name_service().parked() > 0) return true;
    for (const auto& s : n->sites())
      if (!s->failed() && s->machine().parked() > 0) return true;
  }
  return false;
}

Network::Result Network::finish(Result r) const {
  // Order matters for concurrent /healthz readers: clear `running` first
  // so a scrape never reports "running" with a final outcome attached.
  {
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    live_->running.store(false, std::memory_order_relaxed);
  }
  r.stalled = anything_parked();
  r.quiescent = !r.stalled && !r.budget_exhausted;
  live_->outcome.store(r.budget_exhausted ? 3 : (r.stalled ? 2 : 1),
                       std::memory_order_relaxed);
  if (transport_) {
    r.packets = transport_->packets_sent();
    r.bytes = transport_->bytes_sent();
  }
  return r;
}

Network::Result Network::run() {
  {
    // Blocks until any in-progress at-rest (full) scrape finishes, so
    // executors never start under a non-live-safe snapshot.
    std::lock_guard<std::mutex> lk(live_->scrape_mu);
    live_->running.store(true, std::memory_order_relaxed);
  }
  switch (cfg_.mode) {
    case Mode::kSequential: return run_sequential();
    case Mode::kThreaded: return run_threaded();
    case Mode::kSim: return run_sim();
  }
  live_->running.store(false, std::memory_order_relaxed);
  return {};
}

// ---------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------

std::size_t Network::gc_pass(bool final, bool resend) {
  std::size_t queued = 0;
  for (auto& n : nodes_)
    for (auto& s : n->sites()) queued += s->collect(final, resend);
  return queued;
}

void Network::sequential_drain(net::Transport& t, Result& res) {
  for (;;) {
    std::size_t moved = 0;
    std::uint64_t executed = 0;
    for (auto& n : nodes_) moved += n->pump_incoming(t, 0);
    for (auto& n : nodes_) {
      for (std::size_t i = 0; i < n->sites().size(); ++i) {
        Site& s = *n->sites()[i];
        moved += s.process_incoming();
        executed += s.run_slice(cfg_.slice);
        moved += n->pump_site_outgoing(t, i, 0);
      }
    }
    instructions_run_ += executed;
    res.instructions += executed;
    live_->instructions.fetch_add(executed, std::memory_order_relaxed);
    if (moved != 0)
      live_->progress.fetch_add(moved, std::memory_order_relaxed);
    if (instructions_run_ > cfg_.max_instructions) {
      res.budget_exhausted = true;
      return;
    }
    if (moved == 0 && executed == 0 && t.in_flight() == 0) {
      // Quiescent. Run a GC pass; if it queued RELs, keep pumping so the
      // owners apply them (and possibly cascade further collections).
      if (gc_pass(/*final=*/false) > 0) continue;
      return;
    }
  }
}

Network::Result Network::run_sequential() {
  net::Transport& t = transport();
  Result res;
  sequential_drain(t, res);
  return finish(res);
}

// ---------------------------------------------------------------------
// Threaded driver: one executor thread per site, one daemon per node
// ---------------------------------------------------------------------

Network::Result Network::run_threaded() {
  net::Transport& t = transport();
  Result res;
  const bool remote = t.remote();

  // Exact termination (net::WorkCount): attach at rest, then add what
  // is already held — queued packets, runnable machines. A remote
  // transport counts frames arriving from now on itself, and there a
  // parked import counts too: its reply is owed by a peer.
  net::WorkCount work;
  std::int64_t held = static_cast<std::int64_t>(t.attach_work(&work));
  for (auto& n : nodes_) held += n->attach_work(&work, remote);
  work.take(held);
  // In-process, a run with nothing queued or runnable is already over.
  if (remote || held != 0) drive_threads(t, work, res);
  t.attach_work(nullptr);
  for (auto& n : nodes_) n->attach_work(nullptr, false);
  instructions_run_ += res.instructions;
  // In-process, zero is exact termination: at the join no packet is
  // queued and no machine is runnable, so the GC drain below executes no
  // byte code. Anything left means the run stopped early.
  if (!remote && !res.budget_exhausted) {
    std::size_t left = t.in_flight();
    for (auto& n : nodes_)
      for (auto& s : n->sites())
        left += s->incoming_size() + s->outgoing_size() +
                (s->failed() || s->machine().idle() ? 0 : 1);
    if (left != 0)
      run_errors_.push_back("threaded run stopped early: " +
                            std::to_string(left) +
                            " packets or runnable sites left at the join");
  }
  // Executors are joined: the network is single-threaded again, so GC
  // passes run through the sequential pump (over a remote transport,
  // frames peers sent since are applied and executed inline).
  if (!res.budget_exhausted) {
    Result gc_res;
    sequential_drain(t, gc_res);
    res.instructions += gc_res.instructions;
    res.budget_exhausted |= gc_res.budget_exhausted;
  }
  return finish(res);
}

void Network::drive_threads(net::Transport& t, net::WorkCount& work,
                            Result& res) {
  std::atomic<bool> stop{false};
  // The progress clock lives in LiveStatus so TyCOmon's /healthz can
  // report it mid-run: `executed` counts instructions, `progress` counts
  // queue movements (messages applied by sites plus packets pumped by
  // daemons). Both are cumulative across runs, hence the baselines.
  std::atomic<std::uint64_t>& executed = live_->instructions;
  std::atomic<std::uint64_t>& progress = live_->progress;
  const std::uint64_t executed0 = executed.load(std::memory_order_relaxed);
  const bool remote = t.remote();

  std::vector<Site*> sites;
  for (auto& n : nodes_)
    for (auto& s : n->sites()) sites.push_back(s.get());

  // Executors and daemons spin briefly (a packet that arrives within a
  // scheduler pass is picked up without a wakeup), then park on their
  // doorbell until a push rings it.
  constexpr std::uint32_t kYieldsBeforePark = 64;
  std::vector<std::thread> threads;
  for (Site* site : sites) {
    threads.emplace_back([&, site] {
      ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
      Site& s = *site;
      net::Doorbell& bell = s.doorbell();
      // Periodic REL resend (Config::gc_resend_ms): collect() is an
      // executor-thread operation, so the heal timer lives here and
      // bounds the park.
      const bool resend_gc = cfg_.gc_resend_ms > 0;
      const auto resend_every = std::chrono::milliseconds(cfg_.gc_resend_ms);
      auto next_resend = std::chrono::steady_clock::now() + resend_every;
      bool was_idle = false;
      std::uint32_t idle_streak = 0;
      // The credit snapshot walk is O(export table + heap), and a
      // request/reply site flips busy->idle once per round trip — so
      // publishing on every flip is quadratic over a long run. Throttle
      // the idle-edge publish; /gc mid-run is last-published state by
      // contract.
      auto next_publish = std::chrono::steady_clock::now();
      const auto publish_every = std::chrono::milliseconds(20);
      for (;;) {
        const std::uint32_t ticket = bell.ticket();
        if (stop.load(std::memory_order_relaxed)) break;
        const std::size_t applied = s.process_incoming();
        const std::uint64_t ran = s.run_slice(cfg_.slice);
        if (ran != 0 &&
            executed.fetch_add(ran, std::memory_order_relaxed) + ran -
                    executed0 >
                cfg_.max_instructions)
          work.done().ring();  // over budget: wake the main thread
        if (resend_gc && std::chrono::steady_clock::now() >= next_resend) {
          next_resend += resend_every;
          const std::size_t queued = s.collect(/*final=*/false,
                                               /*resend=*/true);
          if (queued != 0)
            progress.fetch_add(queued, std::memory_order_relaxed);
        }
        if (applied != 0)
          progress.fetch_add(applied, std::memory_order_relaxed);
        const bool idle = applied == 0 && ran == 0;
        // With a monitor serving /gc, publish the credit snapshot on
        // busy→idle transitions (at most one per throttle window) so a
        // mid-run scrape sees state roughly as of the last real work.
        if (idle && !was_idle && s.gc_publishing() &&
            std::chrono::steady_clock::now() >= next_publish) {
          s.publish_gc_snapshot();
          next_publish = std::chrono::steady_clock::now() + publish_every;
        }
        was_idle = idle;
        if (!idle) {
          idle_streak = 0;
        } else if (++idle_streak < kYieldsBeforePark) {
          std::this_thread::yield();
        } else if (resend_gc) {
          bell.wait_for(ticket,
                        next_resend - std::chrono::steady_clock::now());
        } else {
          bell.wait(ticket);
        }
      }
    });
  }
  for (auto& n : nodes_) {
    threads.emplace_back([&, node = n.get()] {
      ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
      net::Doorbell& bell = node->doorbell();
      std::uint32_t idle_streak = 0;
      // Over a real wire: death advisories gossiped on kPeers frames
      // move shard ownership here (generation-gated so a quiet fleet
      // costs one atomic load per pump; the transport rings the bell
      // when the set changes).
      net::TcpTransport* tcp = dynamic_cast<net::TcpTransport*>(&t);
      std::uint64_t adv_gen = 0;
      for (;;) {
        const std::uint32_t ticket = bell.ticket();
        if (stop.load(std::memory_order_relaxed)) break;
        if (tcp != nullptr) {
          const std::uint64_t g = tcp->advisory_dead_generation();
          if (g != adv_gen) {
            adv_gen = g;
            node->ns_merge_dead(tcp->advisory_dead(), t, 0);
          }
        }
        const std::size_t moved =
            node->pump_incoming(t, 0) + node->pump_outgoing(t, 0);
        if (moved != 0) {
          progress.fetch_add(moved, std::memory_order_relaxed);
          idle_streak = 0;
          continue;
        }
        // The daemon owns its node's directory slice: publish its tables
        // for concurrent /names scrapes (cheap — gated on a dirty count).
        node->name_service().publish_snapshot();
        if (++idle_streak < kYieldsBeforePark)
          std::this_thread::yield();
        else
          bell.wait(ticket);
      }
    });
  }

  // The main thread sleeps until the count reaches zero (the release
  // that gets there rings done()), an executor passes the instruction
  // budget, or the deadline. In-process, zero is termination. A remote
  // transport cannot see a frame a peer wrote but this process has not
  // read, so there zero must hold — with the transport's queues empty
  // and no progress — over one confirm window.
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.timeout_ms);
  constexpr auto kRemoteConfirm = std::chrono::milliseconds(250);
  net::Doorbell& done = work.done();
  bool confirming = false;
  Clock::time_point confirm_until;
  std::uint64_t p0 = 0, e0 = 0;
  for (;;) {
    const std::uint32_t ticket = done.ticket();
    if (executed.load(std::memory_order_relaxed) - executed0 >
            cfg_.max_instructions ||
        Clock::now() > deadline) {
      res.budget_exhausted = true;
      break;
    }
    auto until = deadline;
    if (work.value() == 0) {
      if (!remote) break;
      const std::uint64_t p = progress.load(std::memory_order_relaxed);
      const std::uint64_t e = executed.load(std::memory_order_relaxed);
      if (confirming && p == p0 && e == e0 && Clock::now() >= confirm_until) {
        if (t.in_flight() == 0) break;
        confirming = false;  // frames still queued for peers: look again
      }
      if (!confirming || p != p0 || e != e0) {
        confirming = true;
        p0 = p;
        e0 = e;
        confirm_until = Clock::now() + kRemoteConfirm;
      }
      until = std::min(until, confirm_until);
    } else {
      confirming = false;
    }
    done.wait_for(ticket, until - Clock::now());
  }
  stop.store(true);
  for (Site* s : sites) s->doorbell().ring();
  for (auto& n : nodes_) n->doorbell().ring();
  for (auto& th : threads) th.join();
  res.instructions = executed.load() - executed0;
}

// ---------------------------------------------------------------------
// Final GC epoch
// ---------------------------------------------------------------------

Network::GcReport Network::collect_garbage(int max_rounds) {
  GcReport rep;
  net::Transport& t = transport();
  // In sim mode the transport holds timed queues: drive them with a
  // virtual clock far past the run's makespan, advanced whenever packets
  // are still in flight, so every REL's arrival time is reached.
  double now = cfg_.mode == Mode::kSim ? 1e15 : 0.0;
  bool final = true;
  for (int round = 0; round < max_rounds; ++round) {
    ++rep.rounds;
    // With the heal timer configured, the final epoch also retransmits
    // cumulative releases: a REL the transport dropped mid-run is then
    // healed even by runs too short for the timer to fire.
    const std::size_t queued =
        gc_pass(final, /*resend=*/final && cfg_.gc_resend_ms > 0);
    final = false;
    // A remote transport delivers asynchronously: a peer's REL can be on
    // the wire while every local scan reads empty. Idle-wait a grace
    // window before declaring the epoch drained.
    int quiet_ms = 0;
    for (;;) {
      std::size_t moved = 0;
      for (auto& n : nodes_) moved += n->pump_outgoing(t, now);
      for (auto& n : nodes_) moved += n->pump_incoming(t, now);
      for (auto& n : nodes_)
        for (auto& s : n->sites()) moved += s->process_incoming();
      if (moved == 0) {
        if (t.in_flight() != 0) {
          now += 1e9;  // sim: jump past any link latency
          continue;
        }
        if (t.remote() && quiet_ms < 300) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          quiet_ms += 10;
          continue;
        }
        break;
      }
      quiet_ms = 0;
      now += 1e6;
    }
    if (queued == 0) break;  // a pass with nothing to say: converged
  }
  for (const auto& n : nodes_)
    for (const auto& s : n->sites()) {
      rep.exports_live += s->machine().live_exports();
      rep.netrefs_live += s->machine().live_netrefs();
    }
  // Primaries and their follower copies both count — a leak-free run
  // drains every slice to zero (the final unregister is forwarded from
  // primary to replica like any other mutation).
  for (const auto& n : nodes_) rep.ns_ids += n->name_service().id_count();
  return rep;
}

// ---------------------------------------------------------------------
// Simulated-cluster driver (conservative virtual time)
// ---------------------------------------------------------------------

Network::Result Network::run_sim() {
  auto& t = dynamic_cast<net::SimTransport&>(transport());
  Result res;

  struct SiteRef {
    Node* node;
    Site* site;
    std::size_t idx_in_node;
  };
  std::vector<SiteRef> sites;
  std::vector<double> clock;
  for (auto& n : nodes_)
    for (std::size_t i = 0; i < n->sites().size(); ++i) {
      sites.push_back(SiteRef{n.get(), n->sites()[i].get(), i});
      clock.push_back(0.0);
    }
  auto site_index = [&](std::uint32_t node, std::uint32_t site) {
    for (std::size_t i = 0; i < sites.size(); ++i)
      if (sites[i].node->id() == node && sites[i].site->site_id() == site)
        return i;
    throw std::logic_error("unknown site in packet");
  };
  // Each directory slice is one server: its requests serialise. One
  // shard routes everything to node 0 (one hot clock); more shards
  // spread the keys over more clocks, which is exactly the contention
  // relief the C6 experiment measures.
  std::vector<double> ns_clock(nodes_.size(), 0.0);
  auto ns_clock_of = [&](std::uint32_t node_id) -> double& {
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (nodes_[i]->id() == node_id) return ns_clock[i];
    throw std::logic_error("NS packet to unknown node");
  };

  // Trace timestamps in sim mode are *virtual*: each ring is switched to
  // the owning site's simulated clock (µs -> ns) before the site does
  // any recordable work, so an exported timeline lines up with the
  // simulated makespan instead of the simulation's wall clock.
  const bool vtrace = tracing_enabled();
  auto vns = [](double us) {
    return static_cast<std::uint64_t>(us < 0 ? 0 : us * 1000.0);
  };
  if (vtrace) {
    for (auto& n : nodes_) n->daemon_ring().set_virtual_time(0);
    for (auto& sr : sites) sr.site->trace_ring().set_virtual_time(0);
  }

  // Deliver packets that have arrived by their destination site's clock.
  // With `force`, the earliest pending packet is delivered anyway and the
  // (idle) receiver's clock advances to its arrival time — this is how
  // virtual time progresses when every site is blocked on the network.
  auto deliver = [&](bool force) {
    bool any = false;
    for (auto& n : nodes_) {
      for (;;) {
        double arrival = 0;
        const net::Packet* head = t.peek(n->id(), arrival);
        if (!head) break;
        std::size_t idx = SIZE_MAX;
        // The NS daemon is modelled as always ready; site packets wait
        // until the receiving site's virtual clock reaches the arrival.
        if (!packet_is_ns(*head)) {
          idx = site_index(n->id(), packet_dst_site(*head));
          // An idle receiver is simply waiting: its clock may jump to the
          // arrival. A busy receiver only sees the packet once its own
          // clock catches up.
          Site& rx = *sites[idx].site;
          const bool rx_idle =
              rx.machine().idle() && rx.incoming_size() == 0;
          if (!force && !rx_idle && arrival > clock[idx]) break;
        }
        net::Packet p;
        t.recv(n->id(), p, arrival);  // pops the head we just peeked
        double now = arrival;
        if (idx != SIZE_MAX) {
          clock[idx] = std::max(clock[idx], arrival);
        } else {
          // NS request: queue behind earlier requests at this host, pay
          // service time.
          double& nsc = ns_clock_of(n->id());
          nsc = std::max(nsc, arrival) + cfg_.ns_service_us;
          now = nsc;
        }
        if (vtrace) n->daemon_ring().set_virtual_time(vns(now));
        n->route(std::move(p), t, now);
        any = true;
      }
    }
    return any;
  };

  for (;;) {
    // Pick the runnable site with the smallest clock.
    std::size_t best = SIZE_MAX;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      Site& s = *sites[i].site;
      const bool work = s.incoming_size() > 0 || !s.machine().idle();
      if (!work) continue;
      if (best == SIZE_MAX || clock[i] < clock[best]) best = i;
    }
    if (best != SIZE_MAX) {
      Site& s = *sites[best].site;
      if (vtrace) s.trace_ring().set_virtual_time(vns(clock[best]));
      s.process_incoming();
      const std::uint64_t ran = s.run_slice(cfg_.slice);
      clock[best] += static_cast<double>(ran) / cfg_.instr_per_us;
      if (vtrace)
        sites[best].node->daemon_ring().set_virtual_time(vns(clock[best]));
      sites[best].node->pump_site_outgoing(t, sites[best].idx_in_node,
                                           clock[best]);
      res.instructions += ran;
      instructions_run_ += ran;
      live_->instructions.fetch_add(ran, std::memory_order_relaxed);
      if (instructions_run_ > cfg_.max_instructions) {
        res.budget_exhausted = true;
        break;
      }
      deliver(false);
      continue;
    }
    if (t.in_flight() > 0) {
      deliver(true);
      continue;
    }
    break;
  }
  for (std::size_t i = 0; i < sites.size(); ++i)
    res.virtual_time_us = std::max(res.virtual_time_us, clock[i]);
  return finish(res);
}

}  // namespace dityco::core
