// A DiTyCO site: an extended TyCO virtual machine plus the structures of
// fig. 3 — incoming/outgoing queues, the export table (inside the
// Machine), a dynamic-link cache for fetched classes, and the
// RemoteBackend that re-implements trmsg/trobj/instof for network
// references (section 5).
//
// Threading contract: the Machine, process_incoming()/run_slice() and
// the outbox are owned by exactly one executor thread, which also
// drains the outbox after each slice (Node::pump_site_outgoing).
// push_incoming() is thread-safe and is the only surface other threads
// touch: sibling executors push their same-node packets (the direct
// handoff of send_packet), the transport's delivering thread pushes
// packets from other nodes (the sender's executor in-process, the I/O
// thread over TCP), and the node daemon pushes name-service replies and
// PEER-DOWN notices. The executor parks on doorbell(), which every
// inbox push rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "vm/machine.hpp"

namespace dityco::ns {
class LeaseCache;
class ShardRouter;
}  // namespace dityco::ns

namespace dityco::core {

class Site {
 public:
  /// Mobility counters. Written by the executor thread; the cells are
  /// atomic (obs::Counter) so drivers and benches may read them while a
  /// threaded Network is running.
  struct MobilityStats {
    obs::Counter msgs_shipped;      // SHIPM departures
    obs::Counter objs_shipped;      // SHIPO departures
    obs::Counter msgs_received;
    obs::Counter objs_received;
    obs::Counter fetch_requests;    // FETCH round trips issued
    obs::Counter fetch_cache_hits;  // dynamic-link cache hits
    obs::Counter fetch_served;      // FETCH requests answered
    obs::Counter loopback;          // remote ops resolved locally
    obs::Counter dropped;           // deliveries to this site after it
                                    // failed (fault injection)
    obs::Counter gc_rel_sent;       // REL records sent to owners
    obs::Counter gc_rel_received;   // REL records applied as owner
                                    // (a REL packet carries one or more)
    obs::Counter gc_rel_dead;       // RELs discarded (owner confirmed dead)
    obs::Counter peers_down;        // PEER-DOWN notices processed
    obs::Counter ns_dropped;        // NS frames whose key had no live
                                    // shard owner (dropped unsent)
    obs::Counter local_handoffs;    // packets handed off to a site on
                                    // this node (no daemon, no transport)
  };

  /// A node's site table, indexed by site id.
  using Table = std::vector<std::unique_ptr<Site>>;

  /// `siblings` is the owning node's site table (this site included):
  /// same-node packets are handed off straight into its inboxes.
  /// Name-service requests go to the owning shard primary in `router`;
  /// `cache`, when non-null, is consulted before lookups cross the wire.
  /// All of them outlive the site (the node owns the table and the
  /// cache, the Network the router).
  Site(std::string name, std::uint32_t node_id, std::uint32_t site_id,
       const Table& siblings, const ns::ShardRouter& router,
       ns::LeaseCache* cache = nullptr);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }
  std::uint32_t node_id() const { return node_id_; }
  std::uint32_t site_id() const { return site_id_; }
  vm::Machine& machine() { return machine_; }
  const vm::Machine& machine() const { return machine_; }

  /// TyCOi: submit a compiled program for execution at this site.
  void submit(const vm::Program& p) { machine_.spawn_program(p); }

  /// Attach a type signature to a to-be-exported identifier (the paper's
  /// combined static/dynamic checking; see src/types).
  void set_export_signature(const std::string& name, std::string sig) {
    export_sigs_[name] = std::move(sig);
  }
  /// Expected signature for an import (checked against the name-service
  /// reply at run time).
  void expect_import_signature(const std::string& site,
                               const std::string& name, std::string sig) {
    import_sigs_[{site, name}] = std::move(sig);
  }

  // -- executor-thread operations --

  /// Parse and apply queued network deliveries to the machine.
  std::size_t process_incoming(std::size_t max_packets = SIZE_MAX);
  /// Run the VM for a bounded number of instructions.
  std::uint64_t run_slice(std::uint64_t max_instructions) {
    const std::uint64_t ran = failed() ? 0 : machine_.run(max_instructions);
    sync_busy();
    return ran;
  }

  /// Distributed-GC collection pass (executor thread, between run
  /// slices): local mark-and-sweep with the site's fetch structures as
  /// extra roots, then queue one REL packet per owner site, with a
  /// record for each of its references whose cumulative released
  /// credit changed (a fixed cap per packet splits huge batches). With
  /// `final`, also drops the dynamic-link cache and unregisters this
  /// site's name-service bindings (shutdown epoch). With `resend`,
  /// retransmits *every* non-zero cumulative release (heals lost RELs;
  /// idempotent at the owner). Returns the number of packets queued (0
  /// once failed).
  std::size_t collect(bool final, bool resend = false);
  /// collect()'s cap on records per REL packet: a resend of a
  /// long-lived site's whole ledger to one owner goes out in frames of
  /// at most ~135 KB (33 bytes a record), far below net::kMaxFrameBytes.
  static constexpr std::size_t kRelRecordsPerPacket = 4096;

  /// Take the next outbox packet (name-service frames and packets for
  /// other nodes; executor thread, or any thread at rest).
  bool pop_outgoing(net::Packet& out);

  // -- operations for other threads (thread-safe) --

  /// Queue a delivery. Its `src_node` (the transport's sender, or this
  /// node for a same-node handoff) drives GC debtor attribution. With
  /// `fresh` the packet holds no work token yet (it came from another
  /// process): one is taken as it is queued, if a count is attached.
  /// A non-null `transit` drops by one under the same lock (see
  /// net::Receiver::deliver).
  void push_incoming(net::Packet p, bool fresh = false,
                     std::atomic<std::size_t>* transit = nullptr);
  std::size_t incoming_size() const;
  std::size_t outgoing_size() const;

  /// The executor's parking bell (rung by every inbox push).
  net::Doorbell& doorbell() { return bell_; }

  /// Threaded driver, at rest: count into `w` (null detaches) one token
  /// per packet this site sends or applies, plus one while the machine
  /// has runnable work — or, with `count_parked`, parked imports (a
  /// remote transport owes their replies). Returns the tokens held now:
  /// queued packets plus the busy token.
  std::int64_t attach_work(net::WorkCount* w, bool count_parked);

  /// Disable the dynamic-link cache (ablation A2): every remote
  /// instantiation re-fetches the class code.
  void set_fetch_cache_enabled(bool on) { fetch_cache_enabled_ = on; }

  /// Fault injection (the paper's future-work item "detect site
  /// failures, reconfigure the computation topology"): a killed site
  /// stops executing and silently drops every subsequent delivery, like
  /// a crashed cluster node. Another site may take over its exported
  /// identifiers by re-exporting them (the name service keeps the newest
  /// binding).
  void kill() { failed_.store(true, std::memory_order_relaxed); }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Nodes this site has seen a PEER-DOWN notice for (executor thread).
  const std::set<std::uint32_t>& dead_peers() const { return dead_peers_; }

  const MobilityStats& mobility() const { return mobility_; }
  /// Snapshot of accumulated errors (copied under a lock; safe to call
  /// while the executor thread is running).
  std::vector<std::string> errors() const;

  // -- observability --

  /// Start recording trace events into a ring of `capacity` slots
  /// (rounded up to a power of two). Also hooks the VM so COMM/INST and
  /// run-slices are recorded. Call before the site starts executing.
  void enable_tracing(std::size_t capacity);
  /// Keep 1-in-`every` trace ids (deterministic in `seed`; see
  /// obs::trace_id_sampled). Call before the site starts executing.
  void set_trace_sampling(std::uint64_t every, std::uint64_t seed) {
    ring_.set_sampling(every, seed);
  }
  obs::TraceRing& trace_ring() { return ring_; }
  const obs::TraceRing& trace_ring() const { return ring_; }

  /// Attach a flight recorder (tail-based trace retention): the error /
  /// credit-starvation / stale-REL paths promote their trace ids
  /// unconditionally. Slow completions reach it through the request
  /// ledger (set_slo), not from here. The recorder must outlive the site
  /// (Network owns it). Call alongside enable_tracing, before the site
  /// executes.
  void set_flight(obs::FlightRecorder* f) {
    flight_ = f;
    if (f != nullptr) f->attach_ring(&ring_);
  }

  /// Attach the request ledger (obs/slo.hpp), the one per-trace record:
  /// each SHIPM/SHIPO/FETCH departure and completion calls one ledger
  /// hook, which feeds the e2e and stage histograms, the flight
  /// recorder's slow policy and, with an objective, the burn-rate
  /// evaluation. Same lifetime rules as set_flight. Call before the
  /// site executes.
  void set_slo(obs::SloPlane* s) { slo_ = s; }

  /// Register this site's mobility counters, latency histograms and the
  /// VM's counters with `registry`, labelled {site="<name>"}. The
  /// registration dies with the site.
  void register_metrics(obs::Registry& registry);

  /// Executor thread: rebuild and publish the machine's credit-state
  /// snapshot for concurrent /gc scrapes (the same single-writer /
  /// atomic-snapshot discipline as the trace ring). With publishing on,
  /// every collect() pass ends with one and the threaded driver adds
  /// one on executor idle transitions; off (no monitor serving), the
  /// run path builds none — at-rest /gc builds its own.
  void publish_gc_snapshot();
  void set_gc_publishing(bool on) {
    publish_gc_.store(on, std::memory_order_relaxed);
  }
  bool gc_publishing() const {
    return publish_gc_.load(std::memory_order_relaxed);
  }
  /// Last published snapshot (any thread; null until first publish).
  std::shared_ptr<const vm::Machine::GcSnapshot> gc_snapshot() const;

 private:
  class Backend;

  /// Apply one delivery; `r` reads the payload after the header `h` and
  /// `size` is the whole frame's byte count.
  void handle_packet(const net::PacketHeader& h, Reader& r, std::size_t size);
  /// Runnable frames, or (count_parked_) imports awaiting a reply.
  bool wants_busy() const;
  /// Take or release the busy token to match wants_busy() (executor
  /// thread; no-op unless attached).
  void sync_busy();
  /// Send a site-addressed frame to `dst_node`. Same-node frames are
  /// handed off into the inbox of the sibling their header names; the
  /// rest are queued in the outbox for the transport.
  void send_packet(std::uint32_t dst_node, std::vector<std::uint8_t> bytes);
  /// Take a work token and queue `bytes` in the outbox, which the
  /// executor drains after its slice. Name-service frames always go
  /// this way, even to this node, whose directory slice serves them.
  void queue_outgoing(std::uint32_t dst_node,
                      std::vector<std::uint8_t> bytes);
  void record_error(std::string what);
  /// Fresh trace id + sampling decision when tracing is on; an untraced
  /// site returns id 0 (no trace field on the wire).
  obs::TraceTag fresh_trace_id() {
    if (!ring_.enabled()) return {};
    obs::TraceTag t;
    t.id = obs::next_trace_id();
    t.sampled = ring_.sample(t.id);
    return t;
  }
  /// The ring's time base (virtual under the sim driver) so latency
  /// measurements are deterministic there; wall clock when untraced.
  std::uint64_t now_ns() const {
    return ring_.enabled() ? ring_.now_ns() : obs::trace_now_ns();
  }

  // RemoteBackend entry points (called from machine_.run()).
  void ship_message(const vm::NetRef& target, const std::string& label,
                    std::vector<vm::Value> args);
  void ship_object(const vm::NetRef& target, std::uint32_t seg_slot,
                   std::vector<vm::Value> env);
  void fetch_instantiate(const vm::NetRef& cls, std::vector<vm::Value> args);
  void export_id(const std::string& name, const vm::NetRef& ref);
  void import_id(const std::string& site, const std::string& name,
                 vm::NetRef::Kind kind, std::uint64_t token);

  /// Owning shard primary for a directory key (ShardRouter::kNoNode
  /// when every owner is dead).
  std::uint32_t ns_target(const std::string& site,
                          const std::string& name) const;

  std::string name_;
  std::uint32_t node_id_, site_id_;
  const Table& siblings_;
  const ns::ShardRouter& ns_router_;
  ns::LeaseCache* lease_cache_;
  // Lookup tokens answered from the lease cache (a synthesized reply
  // must not re-fill the cache — that would renew the lease for free).
  std::set<std::uint64_t> cache_tokens_;
  // Name-service bindings this site created, kept for the final
  // unregister epoch (duplicates allowed: re-export pins again).
  std::vector<std::pair<std::string, vm::NetRef>> exported_names_;
  // atomic so TyCOmon's /healthz can read it off-thread.
  std::atomic<bool> failed_{false};
  std::unique_ptr<Backend> backend_;
  vm::Machine machine_;

  mutable std::mutex queue_mu_;
  std::deque<net::Packet> incoming_;
  std::deque<net::Packet> outgoing_;
  net::Doorbell bell_;
  // Threaded runs only: the run's count and this executor's busy token.
  net::WorkCount* work_ = nullptr;
  bool count_parked_ = false;
  bool busy_ = false;

  // Nodes a failure detector confirmed dead (via PEER-DOWN). Their
  // export credit has been written off; RELs to them are pointless and
  // are discarded instead of queued.
  std::set<std::uint32_t> dead_peers_;

  // FETCH bookkeeping.
  struct FetchInFlight {
    vm::NetRef cls;
    std::uint64_t issued_ns = 0;  // for the fetch round-trip histogram
  };
  bool fetch_cache_enabled_ = true;
  std::map<vm::NetRef, vm::Value> class_cache_;  // dynamic-link cache
  std::map<vm::NetRef, std::vector<std::vector<vm::Value>>> pending_fetch_;
  std::map<std::uint64_t, FetchInFlight> fetch_by_req_;
  std::uint64_t next_req_ = 1;

  std::map<std::string, std::string> export_sigs_;
  std::map<std::pair<std::string, std::string>, std::string> import_sigs_;
  std::map<std::uint64_t, std::pair<std::string, std::string>>
      import_token_keys_;

  MobilityStats mobility_;
  mutable std::mutex err_mu_;
  std::vector<std::string> errors_;

  obs::TraceRing ring_;
  obs::FlightRecorder* flight_ = nullptr;
  obs::SloPlane* slo_ = nullptr;
  // Outbound packet sizes in bytes and FETCH round trips in microseconds.
  obs::Histogram packet_bytes_;
  obs::Histogram fetch_rtt_us_;
  obs::Registry::Registration metrics_reg_;
  obs::Registry::Registration gauges_reg_;

  std::atomic<bool> publish_gc_{false};
  mutable std::mutex snap_mu_;
  std::shared_ptr<const vm::Machine::GcSnapshot> gc_snap_;
};

}  // namespace dityco::core
