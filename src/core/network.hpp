// The network level: a set of DiTyCO nodes, the name service, a
// transport, and three execution drivers.
//
//   * kSequential — deterministic round-robin over sites; the default for
//     tests and the reference for differential checks.
//   * kThreaded   — one executor thread per site plus one daemon thread
//     per node (the paper's architecture: sites and TyCOd are threads
//     sharing the node's address space). Each executor sends its own
//     site's packets; the transport delivers them into the destination
//     site's inbox, and the daemon serves only name-service frames and
//     PEER-DOWN notices. The threads are leased per run from a
//     process-wide cache of parked workers and parked again after it.
//   * kSim        — conservative virtual-time execution over a
//     SimTransport: site execution is metered in instructions per
//     microsecond and packets cost latency + size/bandwidth. Used by the
//     cluster experiments (Myrinet vs Fast Ethernet).
//
// run() implements the global quiescence/termination detection the paper
// lists as future work: it distinguishes *quiescent* (no runnable work,
// no packets in flight, nothing parked) from *stalled* (imports waiting
// on exports that never happened).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calculus/ast.hpp"
#include "core/node.hpp"
#include "net/tcp.hpp"
#include "ns/cache.hpp"
#include "ns/shard.hpp"
#include "net/transport.hpp"
#include "obs/export.hpp"
#include "obs/fleet.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"

namespace dityco::core {

class Network {
 public:
  enum class Mode { kSequential, kThreaded, kSim };

  /// Which wire carries inter-node packets. kInProc is the default
  /// shared-memory queueing; kTcp routes every inter-node packet over
  /// real loopback/LAN sockets — either an in-process mesh (one
  /// TcpTransport per node; benches, tests) or, with tcp.multiprocess,
  /// a single socket endpoint for this process's one node (the tycod
  /// daemon). Mode::kSim alone picks the virtual-time SimTransport.
  enum class TransportKind { kInProc, kTcp };

  struct Config {
    Mode mode = Mode::kSequential;
    /// Transport selector. Ignored under Mode::kSim (the sim driver
    /// requires virtual-time delivery); combining kTcp with Mode::kSim
    /// is an error.
    TransportKind transport = TransportKind::kInProc;
    /// TCP parameters (TransportKind::kTcp). With multiprocess set, the
    /// network hosts exactly one node whose id is tcp.self and peers
    /// are other OS processes; otherwise an in-process loopback mesh of
    /// nodes_.size() endpoints is built and tcp.self is ignored.
    net::TcpConfig tcp;
    net::LinkModel link = net::myrinet();
    /// VM speed for the simulated cluster (byte-code instructions per µs).
    double instr_per_us = 100.0;
    /// Scheduling slice (instructions) per site turn.
    std::uint64_t slice = 256;
    /// Global instruction budget (guards against divergent programs).
    std::uint64_t max_instructions = 100'000'000;
    /// Wall-clock cap for the threaded driver (ms).
    std::uint64_t timeout_ms = 10'000;
    /// Simulated service time per name-service request (µs). Each node
    /// serves its directory slice as one server, so requests to a slice
    /// queue: with the default single shard every lookup serialises at
    /// node 0, which is what the C6 contention experiment measures.
    double ns_service_us = 0.5;
    /// Directory shards (src/ns): each key lives on the node that
    /// rendezvous hashing over nodes 0..ns_shards-1 assigns it, with
    /// `ns_replicas` follower copies for failover. The default, one
    /// shard, is the paper's centralised service on node 0 (0 counts as
    /// 1). In-process networks clamp this to the node count; a
    /// multiprocess daemon passes the fleet size.
    std::uint32_t ns_shards = 1;
    /// Follower copies per shard entry (0 disables replication).
    std::uint32_t ns_replicas = 1;
    /// Lease TTL for client-side caching of positive lookups, in
    /// milliseconds; 0 disables the cache.
    std::uint64_t ns_lease_ms = 0;
    /// Run Damas-Milner inference on every submitted program; attach the
    /// inferred export signatures and import requirements to the site so
    /// remote interactions are checked dynamically (paper, section 7).
    bool typecheck = false;
    /// Distributed GC (credit-based reference counting; DESIGN.md §GC) is
    /// always on: every netref on the wire carries credit, and sites
    /// reclaim export-table entries once every minted unit has returned.
    /// The sequential and threaded drivers run collection passes at
    /// quiescence; sim mode defers GC entirely to collect_garbage() so
    /// virtual-time results are unaffected.
    ///
    /// Threaded driver: every `gc_resend_ms` milliseconds each site
    /// retransmits its non-zero cumulative releases (Site::collect with
    /// resend), healing RELs a lossy transport dropped — the owner's
    /// max-merge makes the retransmission idempotent. 0 (default)
    /// disables the timer. collect_garbage()'s first epoch also resends
    /// when this is set, so a drop is healed even by a short run.
    std::uint64_t gc_resend_ms = 0;
  };

  struct Result {
    bool quiescent = false;
    bool stalled = false;           // parked imports that never resolved
    bool budget_exhausted = false;
    double virtual_time_us = 0.0;   // sim mode: makespan
    std::uint64_t instructions = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  Network() : Network(Config{}) {}
  explicit Network(Config cfg);
  ~Network();
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  Node& add_node();
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  /// Create a site on node `node_idx` and register it with the name
  /// service.
  Site& add_site(std::size_t node_idx, const std::string& name);
  Site* find_site(const std::string& name);

  /// TyCOsh/TyCOi: compile and submit a program at a site.
  void submit(const std::string& site_name, const calc::ProcPtr& prog);
  void submit_source(const std::string& site_name, std::string_view src);
  /// Submit a whole `site name { P }` network file; sites must exist.
  void submit_network_source(std::string_view src);

  /// Drive the network to quiescence (per the configured mode).
  Result run();

  /// Totals after the final GC epoch (see collect_garbage).
  struct GcReport {
    std::uint64_t rounds = 0;        // collection rounds executed
    std::size_t exports_live = 0;    // Σ export-table entries, all sites
    std::size_t netrefs_live = 0;    // Σ live netref slots, all sites
    std::size_t ns_ids = 0;          // IdTable bindings still registered
  };
  /// Final GC epoch, to be called after run(): unregisters every
  /// name-service binding, then alternates collection passes with packet
  /// drains until no site queues further RELs (or `max_rounds` is hit).
  /// After this, a leak-free program leaves every export table and the
  /// IdTable empty. Works in every mode (sim uses a far-future virtual
  /// clock so in-flight RELs arrive).
  GcReport collect_garbage(int max_rounds = 8);

  const std::vector<std::string>& output(const std::string& site_name);
  /// The first node's directory slice: with the default single shard,
  /// the whole name service.
  NameService& name_service() { return nodes_.at(0)->name_service(); }
  /// The shard map every node and site routes directory requests by.
  ns::ShardRouter* ns_router() { return ns_router_.get(); }
  /// Node `node_idx`'s lease cache; null when caching is off.
  ns::LeaseCache* lease_cache(std::size_t node_idx) {
    return node_idx < nodes_.size() ? nodes_[node_idx]->lease_cache() : nullptr;
  }
  net::Transport& transport();
  /// The transport as a TcpTransport (TransportKind::kTcp, multiprocess
  /// mode only); nullptr otherwise. For tycod: port discovery, peer
  /// bootstrap, death-frame wiring checks.
  net::TcpTransport* tcp_transport();
  const Config& config() const { return cfg_; }

  /// All runtime errors: driver invariant violations, then every site's
  /// and machine's.
  std::vector<std::string> all_errors() const;

  // -- observability --

  /// The network's metrics registry. Every site, VM and directory
  /// slice registers here; snapshot()/expose_text()/
  /// expose_json() give the unified view.
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }

  /// Enable causal event tracing on every current and future node (site
  /// executor rings plus daemon rings). Call before run().
  /// `sample_every` > 1 records only 1-in-N trace ids — the decision is a
  /// deterministic hash of the id (see obs::trace_id_sampled) made at
  /// allocation and carried on the wire, so a sampled operation is
  /// captured at every hop and an unsampled one costs a branch per hop.
  void enable_tracing(std::size_t capacity = 1 << 14,
                      std::uint64_t sample_every = 1,
                      std::uint64_t sample_seed = 0);
  bool tracing_enabled() const { return trace_capacity_ > 0; }

  /// Tail-based trace retention (obs/flight.hpp): switches every ring —
  /// current and future — into record-all mode, attaches a flight
  /// recorder to every site and to the request ledger (whose
  /// completions apply `policy`'s slow rules), and registers its
  /// counters with the metrics registry. Implies enable_tracing() (with
  /// defaults) when tracing is off. GET /trace keeps its 1-in-N sampled
  /// view — the exporter re-filters — while GET /flight serves the
  /// promoted tail. Call before run(); callable again to adjust the
  /// policy.
  void enable_flight(const obs::FlightPolicy& policy = {});
  bool flight_enabled() const { return flight_ != nullptr; }
  obs::FlightRecorder& flight() { return *flight_; }
  /// The promoted traces as Chrome trace-event JSON (TyCOmon /flight).
  std::string flight_json() const;

  /// Workload SLO plane (obs/slo.hpp): the request ledger every site
  /// feeds (shared with enable_flight) also takes the transport's
  /// tcp-send/tcp-recv hops, so SHIPM/SHIPO/FETCH latency decomposes
  /// into per-stage histograms, and evaluates `cfg.objective` with
  /// multi-window burn-rate state (ok/warn/page). Implies
  /// enable_tracing() (the ledger keys on propagated trace ids); with
  /// the flight recorder enabled (either order), objective-violating
  /// trace ids are promoted so /flight holds the offending timeline.
  /// TyCOmon serves the plane at GET /slo; slo_* metrics land in the
  /// registry. Call before run(); callable again to adjust objectives.
  void enable_slo(const obs::SloPlane::Config& cfg = {});
  bool slo_enabled() const {
    return slo_ != nullptr && slo_->has_objective();
  }
  /// The request ledger; exists once enable_flight or enable_slo ran.
  obs::SloPlane& slo() { return *slo_; }
  /// The /slo payload (empty object when the plane is off).
  std::string slo_json();

  /// Enable the sampled VM execution profiler (obs/profile.hpp) on every
  /// current and future site: one sample per `period` executed
  /// instructions, attributed to (opcode, definition).
  void enable_profiling(std::uint64_t period = 1024);
  bool profiling_enabled() const { return prof_period_ > 0; }
  /// All sites' samples as folded stacks — `site;definition;opcode N`
  /// lines, highest count first per site (TyCOmon /profile; feed to
  /// flamegraph tools).
  std::string profile_folded() const;

  // -- TyCOmon: the per-network monitoring daemon --

  /// Start the TyCOmon scrape server on 127.0.0.1:`port` (0 picks an
  /// ephemeral port). Serves GET /metrics (Prometheus text),
  /// /metrics.json, /trace (Chrome trace JSON of the current rings) and
  /// /healthz (per-site queue depths and the run's progress clock), all
  /// safe to hit while run() executes. Returns the bound port, 0 on
  /// failure. The Network must not be moved once the monitor is started
  /// (handlers capture `this`).
  /// `bind_addr` other than 127.0.0.1 exposes the endpoints off-host —
  /// plain text, unauthenticated; the server prints a warning.
  std::uint16_t start_monitor(std::uint16_t port = 0,
                              const std::string& bind_addr = "127.0.0.1");
  void stop_monitor();
  /// Bound port, or 0 when the monitor is not running.
  std::uint16_t monitor_port() const {
    return monitor_ ? monitor_->port() : 0;
  }

  /// The /healthz payload: liveness + per-site queue/trace state (plus,
  /// on a TCP network, per-peer transport state). Public for tests and
  /// tools; always safe to call.
  std::string health_json() const;

  /// The /peers payload: this node's identity (node id, advertised
  /// address, monitor port) plus every known peer's transport state —
  /// gossip view, phi, last-heard age, queue depth, reconnects, RTT and
  /// the peer's gossiped TyCOmon port. A fleet aggregator walks these
  /// monitor ports transitively to discover every node from one seed
  /// (obs/fleet.hpp). Empty peer list on non-TCP networks.
  std::string peers_json() const;

  /// The /gc payload: every site's export-table snapshot — per-entry
  /// minted/returned/released ledgers, applied releaser slots, debt,
  /// pins — plus import balances, declared cumulative RELs and
  /// free-list sizes. At rest the snapshots are built fresh under
  /// scrape_mu (executors cannot start mid-build); while run() executes
  /// the last snapshots published by the executor threads are served
  /// (sites that never published are marked "stale"). Sites publish
  /// only while the monitor is started.
  std::string gc_json() const;

  /// The /names payload: every hosted directory slice's Site/Id tables
  /// with ownership, held credit and its REL ledger (one "shard<N>"
  /// scope per node), the shard map and the lease caches. Same
  /// at-rest/published discipline as /gc.
  std::string names_json() const;

  /// Run the GC credit audit (obs/fleet.hpp) over this process's own
  /// /gc + /names documents — and, with `include_fleet` on a monitored
  /// TCP network, over every peer TyCOmon discovered via /peers.
  /// Every call bumps the `gc_audits` counter; each confirmed anomaly
  /// bumps `gc_audit_imbalance` and promotes the offending entry's
  /// minting trace into the flight recorder (kRelAnomaly).
  obs::fleet::AuditReport self_audit(bool include_fleet = false);

  /// At-rest REL heal: resend every site's cumulative releases and pump
  /// until quiet (the executor-thread heal timer only runs inside
  /// run()). Returns REL packets queued; no-op while run() executes or
  /// when GC is off. Used by tycod's --audit-ms loop so a REL dropped
  /// after the last run still heals within one interval.
  std::size_t heal_releases();

  /// Merge every enabled ring into per-thread event lists (one per site,
  /// one per node daemon). Call after run(); rings are left intact.
  std::vector<obs::ThreadTrace> collect_traces() const;
  /// The merged timeline as Chrome trace-event JSON (open in Perfetto or
  /// chrome://tracing).
  std::string trace_json() const;

 private:
  Result run_sequential();
  Result run_threaded();
  /// run_threaded's live part: one executor per site and one daemon per
  /// node, each on a worker leased from the process-wide cache, while
  /// the main thread sleeps until `work` reaches zero (plus the remote
  /// confirm window), the budget or the deadline; it returns once every
  /// worker has given its body back and parked again.
  void drive_threads(net::Transport& t, net::WorkCount& work, Result& res);
  Result run_sim();
  bool anything_parked() const;
  Result finish(Result r) const;
  /// One distributed-GC collection pass over every site; returns the
  /// number of packets (RELs, unregisters) the pass queued.
  std::size_t gc_pass(bool final, bool resend = false);
  /// Turn every site's mid-run credit-snapshot publishing on or off
  /// (on exactly while the monitor serves /gc).
  void set_gc_publishing(bool on);
  /// Publish a TcpTransport's counters/gauges into the registry.
  void register_tcp_metrics(net::TcpTransport& t, const std::string& label);
  /// The TCP endpoints already constructed, without forcing the lazy
  /// transport factory (safe to call before add_node()): the single
  /// multiprocess transport, or every part of an in-process mesh.
  std::vector<net::TcpTransport*> tcp_parts() const;
  /// The timeline name of (node, site) for /trace and /flight:
  /// obs::thread_name with the site's name looked up.
  std::string line_name(std::uint32_t node, std::uint32_t site) const;
  /// Attach a transport's ring to the flight recorder, switch it to
  /// record-all, and promote reconnect/peer-death events as kNetwork.
  void wire_tcp_flight(net::TcpTransport& t);
  /// The one request ledger, created (and attached to every node) by
  /// whichever of enable_flight/enable_slo runs first.
  obs::SloPlane& ledger();
  /// Feed a transport's tcp-send/tcp-recv hops into the SLO ledger.
  void wire_tcp_slo(net::TcpTransport& t);
  /// The sequential pump loop: round-robin sites until quiescent
  /// (quiescence triggers collection passes until no RELs flow).
  void sequential_drain(net::Transport& t, Result& res);

  /// Live run state shared between the drivers and TyCOmon's handlers.
  /// Heap-allocated (atomics are immovable, Network is movable); the
  /// threaded driver's progress clock lives here so /healthz can show it.
  struct LiveStatus {
    std::atomic<bool> running{false};
    std::atomic<std::uint64_t> instructions{0};  // cumulative, all runs
    std::atomic<std::uint64_t> progress{0};      // queue movements
    // 0 = never ran, 1 = quiescent, 2 = stalled, 3 = budget exhausted.
    std::atomic<int> outcome{0};
    // Audit plane: self-audits run and confirmed anomalies they found
    // (exported as gc_audits / gc_audit_imbalance; live-safe).
    obs::Counter gc_audits;
    obs::Counter gc_audit_imbalance;
    // Serialises a scrape's "at rest → full snapshot" decision against
    // the running transitions: run() flips `running` under this mutex,
    // and a scrape that saw false keeps holding it through the full
    // (non-live-safe) exposition, so executor threads can never start
    // mid-snapshot. Scrapes while running use live-only paths and
    // release it immediately.
    std::mutex scrape_mu;
  };

  Config cfg_;
  // Declared first so it is destroyed last: sites/NS hold collector
  // registrations that must unregister before the registry dies.
  // Heap-allocated so collector lambdas survive Network moves.
  std::unique_ptr<obs::Registry> metrics_;
  // Declared before nodes_ so sites' raw FlightRecorder pointers never
  // outlive the recorder.
  std::unique_ptr<obs::FlightRecorder> flight_;
  // The request ledger. Same lifetime discipline as flight_: sites hold
  // raw pointers, and it holds the recorder's.
  std::unique_ptr<obs::SloPlane> slo_;
  // The name service's shard map (heap-allocated so that nodes' and
  // sites' pointers survive moves).
  std::unique_ptr<ns::ShardRouter> ns_router_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::Transport> transport_;
  std::uint64_t instructions_run_ = 0;
  // Driver invariant violations (all_errors lists them first).
  std::vector<std::string> run_errors_;
  std::size_t trace_capacity_ = 0;
  std::uint64_t sample_every_ = 1, sample_seed_ = 0;
  std::uint64_t prof_period_ = 0;  // 0 = profiling off
  obs::Registry::Registration flight_reg_;
  obs::Registry::Registration slo_reg_;
  obs::Registry::Registration tcp_metrics_reg_;
  obs::Registry::Registration audit_reg_;
  std::unique_ptr<LiveStatus> live_ = std::make_unique<LiveStatus>();
  // Declared last: the server thread reads everything above, so it must
  // be stopped (destroyed) first.
  std::unique_ptr<obs::MonitorServer> monitor_;
};

}  // namespace dityco::core
