// The (extended) TyCO virtual machine: one instance per site.
//
// Architecture per the paper (section 5, fig. 3): a program area (linked
// code segments), a heap of channels holding pending messages/objects, a
// run-queue of small threads (frames), an operand stack for builtin
// expressions, and an export table mapping local heap references
// to hardware-independent network references. Remote interaction
// (trmsg/trobj on network references, instof on remote classes,
// export/import) is delegated to a RemoteBackend implemented by the
// distribution runtime in src/core; the machine itself is single-threaded
// and has no knowledge of transports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/intern.hpp"
#include "vm/segment.hpp"
#include "vm/value.hpp"
#include "vm/verify.hpp"

namespace dityco::vm {

class Machine;

/// Distribution hooks. The default-constructed Machine has none and
/// records a runtime error if a program attempts remote interaction.
class RemoteBackend {
 public:
  virtual ~RemoteBackend() = default;

  /// Rule SHIPM: a message for a name in another site's heap.
  virtual void ship_message(Machine& m, const NetRef& target,
                            const std::string& label,
                            std::vector<Value> args) = 0;
  /// Rule SHIPO: an object whose location is another site's heap.
  virtual void ship_object(Machine& m, const NetRef& target,
                           std::uint32_t seg_slot, std::vector<Value> env) = 0;
  /// Rule FETCH: instantiate a class defined at another site. The backend
  /// downloads (or finds cached) the code and eventually instantiates.
  virtual void fetch_instantiate(Machine& m, const NetRef& cls,
                                 std::vector<Value> args) = 0;
  virtual void export_name(Machine& m, const std::string& name,
                           Value chan) = 0;
  virtual void export_class(Machine& m, const std::string& name,
                            Value cls) = 0;
  /// Asynchronous name-service lookups; the backend must eventually call
  /// Machine::resume_import(token, value) (possibly much later).
  virtual void import_name(Machine& m, const std::string& site,
                           const std::string& name, std::uint64_t token) = 0;
  virtual void import_class(Machine& m, const std::string& site,
                            const std::string& name, std::uint64_t token) = 0;
};

/// An object closure pending at a channel: a method-table segment plus
/// the values captured from its lexical environment.
struct ObjClosure {
  std::uint32_t seg = 0;
  std::vector<Value> env;
};

struct PendingMsg {
  std::uint32_t label = 0;  // site-global label id
  std::vector<Value> args;
};

/// FIFO queue kept in one vector plus a head index. An empty queue owns
/// no memory, a drained one keeps its capacity (so a reused channel slot
/// or the run queue allocates nothing in steady state), and push_front —
/// putting back an object whose method did not match — refills the slot
/// just popped. The consumed prefix is compacted away once it is at
/// least half the vector, so a queue that never drains stays bounded.
template <class T>
class SlotQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const T* begin() const { return items_.data() + head_; }
  const T* end() const { return items_.data() + items_.size(); }

  void push_back(T v) { items_.push_back(std::move(v)); }
  void push_front(T v) {
    if (head_ > 0)
      items_[--head_] = std::move(v);
    else
      items_.insert(items_.begin(), std::move(v));
  }
  /// Precondition: !empty().
  T pop_front() {
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }
  /// Drops every entry and keeps the capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 32;
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// A heap channel (the paper's "name"): queues of messages and objects
/// waiting for their counterpart. At most one of the two is non-empty.
struct Channel {
  SlotQueue<PendingMsg> msgs;
  SlotQueue<ObjClosure> objs;
};

/// A definition block instance: the runtime form of `def D in P`. Shared
/// by all classes of the block; the environment holds the block's
/// captured free values.
struct Block {
  std::uint32_t seg = 0;
  std::vector<Value> env;
};

/// A class value: which block, which class within it.
struct ClassEntry {
  std::uint32_t block = 0;
  std::uint32_t cls = 0;
};

/// A runnable thread: a small byte-code block with its bindings. Threads
/// are "a few tens of byte-code instructions" (paper, section 1), so the
/// scheduler runs each to completion and context switches are cheap.
/// `locals` is sized once, when the frame is made, to the larger of what
/// it is given (env ++ args, or a fork's captures) and its segment's
/// verified max_locals, so the interpreter reads and writes slots
/// without a check. While a frame executes, its operands live in the
/// machine's operand buffer; `stack` holds them only while the frame is
/// out of the interpreter mid-expression (preempted at the slice budget,
/// or parked on an import), and is empty otherwise.
struct Frame {
  std::uint32_t seg = 0;
  std::uint32_t pc = 0;
  std::uint32_t block = kNoBlock;  // enclosing def block (for kLoadSibling)
  std::uint64_t enq_ns = 0;  // run-queue entry time (profiling only; 0 = off)
  std::vector<Value> locals;
  std::vector<Value> stack;  // saved operands (see above)

  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
};

class Machine {
 public:
  // SoloCounter: only the executor thread writes (a plain add, no RMW),
  // but TyCOmon may scrape the values mid-run from its server thread.
  struct Stats {
    obs::SoloCounter instructions;
    obs::SoloCounter comm_reductions;   // message met object
    obs::SoloCounter inst_reductions;   // class instantiations
    obs::SoloCounter forks;
    obs::SoloCounter frames_run;        // context switches
    obs::SoloCounter prints;
  };

  explicit Machine(std::string name, std::uint32_t node_id = 0,
                   std::uint32_t site_id = 0,
                   RemoteBackend* backend = nullptr);

  const std::string& name() const { return name_; }
  std::uint32_t node_id() const { return node_id_; }
  std::uint32_t site_id() const { return site_id_; }
  void set_backend(RemoteBackend* b) { backend_ = b; }

  // ---- program loading and linking -----------------------------------

  /// Load a compiled program: verifies every segment (throws DecodeError
  /// on a problem, linking nothing), stamps fresh GUIDs, links every
  /// segment. Returns the site segment slot of the program's root segment.
  std::uint32_t load_program(const Program& p);

  /// Load a program and enqueue a frame at its entry point.
  void spawn_program(const Program& p);

  /// Link a shipped segment that will be used in `role` (and,
  /// recursively, its dependencies, looked up in `pool`, each in the
  /// role its referrer uses it in), verifying each before it is linked.
  /// Deduplicates by GUID; a segment already linked must have verified
  /// in `role`. Throws DecodeError. Returns the site slot.
  std::uint32_t link(const SegmentGuid& guid,
                     const std::map<SegmentGuid, Segment>& pool,
                     SegmentRole role);

  /// Serialise the segment closure rooted at `slot` (for SHIPO/FETCH).
  void collect_closure(std::uint32_t slot, std::vector<Segment>& out) const;

  bool has_segment(const SegmentGuid& guid) const {
    return guid_to_slot_.contains(guid);
  }

  // ---- execution ------------------------------------------------------

  /// Execute up to `max_instructions`; returns the number executed.
  /// Stops early when the run queue drains.
  std::uint64_t run(std::uint64_t max_instructions);

  bool idle() const { return queue_.empty(); }
  std::size_t runnable() const { return queue_.size(); }
  std::size_t parked() const { return parked_.size(); }
  std::uint64_t pending_messages() const { return pending_msgs_; }
  std::uint64_t pending_objects() const { return pending_objs_; }

  // ---- channel operations (shared by local execution and deliveries) --

  std::uint32_t new_channel();
  void channel_send(std::uint32_t chan, std::uint32_t label,
                    std::vector<Value> args);
  void channel_recv(std::uint32_t chan, ObjClosure obj);

  /// Rule INST: instantiate a (local) class value with the given
  /// arguments.
  void instantiate_class(Value cls, std::span<const Value> args);

  std::uint32_t make_block(std::uint32_t seg_slot, std::vector<Value> env);
  Value make_class_value(std::uint32_t block, std::uint32_t cls);
  const ClassEntry& class_entry(std::uint32_t idx) const {
    return classes_.at(idx);
  }
  const Block& block(std::uint32_t idx) const { return blocks_.at(idx); }

  // ---- deliveries from the communication daemon ----------------------

  /// The site's I/O port (paper, section 5: "An I/O port is required for
  /// each site ... so that users may selectively provide data to running
  /// programs"): posts a message to the site-global free-name channel
  /// `chan_name`, creating it if needed. Programs receive it with an
  /// ordinary object (e.g. `io?(v) = ...`); output flows back through
  /// `print` into output().
  void io_send(const std::string& chan_name, const std::string& label,
               std::vector<Value> args);

  void deliver_message(std::uint64_t heap_id, const std::string& label,
                       std::vector<Value> args);
  void deliver_object(std::uint64_t heap_id, std::uint32_t seg_slot,
                      std::vector<Value> env);
  void resume_import(std::uint64_t token, Value v);

  // ---- export table (section 5) ---------------------------------------

  /// Register a channel in the export table (idempotent); returns HeapId.
  /// Mints no credit: callers that put the reference on the wire mint
  /// through export_chan_credit or mint_export_credit.
  std::uint64_t export_chan(std::uint32_t chan_idx);
  /// Register a class value; returns HeapId.
  std::uint64_t export_class_value(Value cls);
  /// Translate an incoming HeapId back to the local channel (throws
  /// VmError if unknown — a forged reference).
  Value resolve_exported_chan(std::uint64_t heap_id) const;
  Value resolve_exported_class(std::uint64_t heap_id) const;

  // ---- distributed GC (credit accounting; DESIGN.md §GC) --------------

  /// Export + mint: registers like export_chan and mints kMintCredit
  /// against the entry. Returns {heap_id, credit to put on the wire}.
  std::pair<std::uint64_t, std::uint64_t> export_chan_credit(
      std::uint32_t chan_idx);
  std::pair<std::uint64_t, std::uint64_t> export_class_credit(Value cls);
  /// Mint credit against an already-exported reference owned by this
  /// machine (used when handing a reference to the name service).
  std::uint64_t mint_export_credit(const NetRef& ref);
  /// Credit carried by an owned reference that came home: shrinks the
  /// entry's outstanding balance (and may reclaim it).
  void return_export_credit(NetRef::Kind kind, std::uint64_t heap_id,
                            std::uint64_t credit);
  /// Name-service pin: an entry bound to an exported identifier cannot be
  /// reclaimed until the binding is dropped.
  void pin_name(const NetRef& ref);
  void unpin_name(const NetRef& ref);

  /// No-peer sentinel for set_credit_peer.
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;
  /// Debtor attribution: while a peer node is set, minted export credit
  /// is charged to that node's per-entry debt slot and returned credit
  /// pays it down. The Site brackets marshalling (debtor = destination
  /// node) and inbound processing (debtor = source node) with this, so
  /// each export entry knows roughly who holds its outstanding credit —
  /// the ledger consulted when a failure detector declares a node dead.
  void set_credit_peer(std::uint32_t node) { credit_peer_ = node; }
  std::uint32_t credit_peer() const { return credit_peer_; }

  /// Observability context: while set, freshly minted credit stamps its
  /// export entry with this trace id, so an audit that later finds the
  /// entry imbalanced can promote the trace that created the credit into
  /// the flight recorder. Zero clears (no active trace).
  void set_credit_trace(std::uint64_t trace_id) { credit_trace_ = trace_id; }

  /// Re-attribute `amount` of an entry's outstanding credit to `node`
  /// (CREDIT-MOVED: the name service handed part of its held share to a
  /// third party; the owner must charge the new holder, not the NS).
  void attribute_export_credit(NetRef::Kind kind, std::uint64_t heap_id,
                               std::uint32_t node, std::uint64_t amount);

  /// Failure write-off: forgive every export entry's credit attributed
  /// to `node` (a confirmed-dead peer). The forgiven amount enters a
  /// synthetic released slot — (node, 0xffffffff), a site id no real
  /// site uses — so the normal reclaim rule fires once live holders
  /// drain too. Returns total credit written off. Attribution is
  /// best-effort (peer-to-peer forwarding splits are charged to the
  /// first hop), so entries whose credit died in an unattributed hand
  /// leak instead of freeing early: the safe direction.
  std::uint64_t write_off_node(std::uint32_t node);

  enum class ReleaseResult { kApplied, kReclaimed, kStale };
  /// Apply a REL: releaser (rel_node, rel_site) has cumulatively released
  /// `cum` credit for this entry. Cumulative totals max-merge, so
  /// duplicated / reordered / retransmitted RELs are idempotent; a REL
  /// for an unknown (already reclaimed) entry is stale and ignored.
  ReleaseResult apply_release(NetRef::Kind kind, std::uint64_t heap_id,
                              std::uint32_t rel_node, std::uint32_t rel_site,
                              std::uint64_t cum);

  /// Forwarding split: removes and returns half of the local credit
  /// balance of netref slot `idx` (0 for a weak handle — the safe
  /// direction: the receiver's copy can leak but never frees early).
  std::uint64_t split_netref_credit(std::uint32_t idx);
  /// Intern a foreign reference and add wire-carried credit to its
  /// balance.
  std::uint32_t intern_netref_credit(const NetRef& r, std::uint64_t credit);

  struct GcOutcome {
    std::size_t channels_freed = 0;
    std::size_t netrefs_freed = 0;
  };
  /// Local mark-and-sweep over the VM roots (run queue, parked frames,
  /// globals, live export entries, plus `extra_roots`), with `pinned`
  /// netrefs kept alive regardless. Unreachable channels go to the free
  /// list; unreachable netref slots release their credit into the
  /// pending-REL ledger. Must only be called between run() slices (no
  /// frame on the C++ stack).
  GcOutcome gc(const std::vector<Value>& extra_roots = {},
               const std::vector<NetRef>& pinned = {});

  /// Releases whose cumulative total changed since the last call (the
  /// owner should be told); clears the pending set.
  std::vector<std::pair<NetRef, std::uint64_t>> take_pending_releases();
  /// Every non-zero cumulative release this machine ever made
  /// (idempotent retransmission for REL-loss healing).
  std::vector<std::pair<NetRef, std::uint64_t>> all_releases() const;

  /// True when instructions ran (or an entry was reclaimed) since the
  /// last gc() — collection passes on a clean machine are skipped.
  bool gc_dirty() const { return gc_dirty_; }
  void mark_gc_dirty() { gc_dirty_ = true; }

  // -- GC introspection (leak checks and gauges) --

  std::size_t live_exports() const {
    return chan_exports_.size() + class_exports_.size();
  }
  /// Σ over export entries of minted − returned − released: credit in
  /// flight or held remotely.
  std::uint64_t exports_outstanding() const;
  std::size_t live_channels() const { return heap_.size() - free_chans_.size(); }
  std::size_t live_netrefs() const {
    return netrefs_.size() - free_netrefs_.size();
  }
  /// Σ of local credit balances over live netref slots.
  std::uint64_t netref_credit_total() const;

  /// Consistent copy of the whole credit state of this machine: every
  /// export-table entry with its full minted/returned/released/pin/debt
  /// ledgers, every live import (foreign netref) with its balance, the
  /// releaser-side cumulative REL ledger, and the heap/netref free-list
  /// sizes. Built by the owner thread (or any thread while the machine is
  /// at rest) and published by the Site as an atomic shared_ptr so
  /// TyCOmon's /gc endpoint can serve it mid-run — the same
  /// single-writer/atomic-snapshot discipline as the trace rings.
  struct GcSnapshot {
    struct Entry {
      NetRef::Kind kind = NetRef::Kind::kChan;
      std::uint64_t heap_id = 0;
      std::uint32_t local = 0;      // channel or class index
      std::uint64_t minted = 0;
      std::uint64_t returned = 0;
      std::uint64_t released = 0;   // Σ of the released map
      std::uint64_t outstanding = 0;
      std::uint32_t pins = 0;       // name-service binding pins
      std::uint64_t touched_ns = 0; // last credit activity (leak age)
      std::uint64_t last_trace = 0; // trace id of the last mint
      // (releaser_key, cumulative released) — the applied REL slots.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> releasers;
      // (node, credit believed held there) — the advisory debt ledger.
      std::vector<std::pair<std::uint32_t, std::uint64_t>> debt;
    };
    struct Held {           // one live imported reference
      NetRef ref;
      std::uint64_t credit = 0;
    };
    struct Rel {            // releaser-side cumulative ledger
      NetRef ref;
      std::uint64_t cum = 0;
    };
    std::uint32_t node = 0, site = 0;
    std::string name;
    std::vector<Entry> exports;   // channels first, then classes
    std::vector<Held> imports;
    std::vector<Rel> releases;
    std::size_t live_channels = 0, free_channels = 0;
    std::size_t live_netrefs = 0, free_netrefs = 0;
    std::uint64_t outstanding = 0;  // Σ entry outstanding
    std::uint64_t held = 0;         // Σ import balances
    // Clock anchor: steady (trace) time and wall time sampled together
    // at build, so a fleet auditor can rebase touched_ns across
    // processes (same scheme as /trace's ExportMeta anchor).
    std::uint64_t steady_now_ns = 0;
    std::uint64_t wall_now_us = 0;
  };
  GcSnapshot gc_snapshot() const;

  struct GcStats {
    obs::SoloCounter collections;
    obs::SoloCounter channels_freed;
    obs::SoloCounter netrefs_freed;
    obs::SoloCounter exports_reclaimed;
    obs::SoloCounter credit_mints;    // marshalled owned refs
    obs::SoloCounter credit_starved;  // forwarded with a zero share
    obs::SoloCounter rel_stale;       // duplicate/reordered/unknown RELs
    obs::SoloCounter credit_written_off;  // forgiven for dead peers
  };
  const GcStats& gc_stats() const { return gc_stats_; }

  // ---- interning / tables ---------------------------------------------

  std::uint32_t intern_netref(const NetRef& r);
  const NetRef& netref(std::uint32_t idx) const { return netrefs_.at(idx); }
  std::uint32_t intern_string(std::string_view s);
  const std::string& str(std::uint32_t idx) const { return strings_.name(idx); }
  std::uint32_t intern_label(std::string_view s) {
    return labels_.intern(s);
  }
  const std::string& label_name(std::uint32_t id) const {
    return labels_.name(id);
  }
  const Segment& segment(std::uint32_t slot) const {
    return *linked_.at(slot).seg;
  }

  /// Render a value the way `print` does (identical to the reducer).
  std::string display(const Value& v) const;

  // ---- observability ---------------------------------------------------

  const std::vector<std::string>& output() const { return output_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const Stats& stats() const { return stats_; }
  void clear_output() { output_.clear(); }

  /// Event tracing: when a ring is attached (the owning Site's), COMM
  /// and INST reductions and run-slice begin/end are recorded into it.
  /// Null (the default) costs one predictable branch per reduction.
  void set_event_ring(obs::TraceRing* ring) { ring_ = ring; }

  /// The attached ring's time base (virtual in sim mode) or steady_clock
  /// when tracing is off — shared by the profiler's run-queue wait
  /// measurement and the Site's latency hooks.
  std::uint64_t clock_ns() const {
    return ring_ && ring_->enabled() ? ring_->now_ns() : obs::trace_now_ns();
  }

  /// Sampled execution profiling: every `period` executed instructions
  /// one sample is attributed to (opcode, current segment), and frames
  /// get enqueue->dispatch wait times observed into a histogram. Off by
  /// default (period 0); when off the only cost is one predictable
  /// branch per instruction. Owner thread only, like run().
  void enable_profiling(std::uint64_t period);
  bool profiling_enabled() const { return prof_.enabled(); }
  const obs::Profiler& profiler() const { return prof_; }
  const obs::Histogram& run_wait_histogram() const { return run_wait_us_; }
  /// Folded-stacks text: one `site;definition;opcode count` line per
  /// sampled (segment, opcode) pair, hottest first. Any thread.
  std::string profile_folded() const;

  /// Publish this machine's Stats into a metrics registry under
  /// `vm_*{site="<name>"}` names. The registrations are dropped when the
  /// machine dies. The Stats counters are live-safe (atomic cells); the
  /// queue-depth gauges read plain containers and register as
  /// live_safe=false, so a live scrape shows counters only.
  void register_metrics(obs::Registry& registry);

 private:
  struct LinkedSegment {
    std::shared_ptr<const Segment> seg;
    // The segment's tables mapped to site ids, in one array: dependency
    // slots, then label ids from labels_at, then string ids from
    // strings_at (a linked segment is kept for the site's lifetime).
    std::vector<std::uint32_t> ids;
    std::uint32_t labels_at = 0;
    std::uint32_t strings_at = 0;
    // What verification proved (SegmentFacts): the locals table entry k
    // must be given is entry_locals_[entry_base + k].
    std::uint32_t entry_base = 0;
    std::uint16_t max_locals = 0;
    std::uint8_t roles = 0;

    std::uint32_t dep(std::uint32_t i) const { return ids[i]; }
    std::uint32_t label(std::uint32_t i) const { return ids[labels_at + i]; }
    std::uint32_t string(std::uint32_t i) const {
      return ids[strings_at + i];
    }
  };

  struct ParkedFrame {
    Frame frame;
    std::uint32_t dst = 0;
  };

  struct VmError {
    std::string what;
  };

  /// One credit-bearing export-table entry (distributed GC). An entry is
  /// reclaimed when every unit of minted credit has come back — returned
  /// inline or released via REL — and no name-service binding pins it.
  struct ExportEntry {
    std::uint32_t local = 0;       // channel or class index
    std::uint64_t minted = 0;      // credit ever put on the wire
    std::uint64_t returned = 0;    // credit that came home inline
    std::uint32_t names = 0;       // name-service binding pins
    // Per-releaser cumulative released credit, max-merged (REL protocol).
    std::map<std::uint64_t, std::uint64_t> released;
    // Debtor ledger: node -> credit believed held there (see
    // set_credit_peer / write_off_node). Advisory only — it never gates
    // reclamation, it only bounds what a failure write-off may forgive.
    std::map<std::uint32_t, std::uint64_t> debt;
    std::uint64_t touched_ns = 0;  // last credit activity (audit leak age)
    std::uint64_t last_trace = 0;  // trace id active at the last mint

    std::uint64_t released_total() const {
      std::uint64_t sum = 0;
      for (const auto& [k, v] : released) sum += v;
      return sum;
    }
    std::uint64_t outstanding() const {
      const std::uint64_t back = returned + released_total();
      return back >= minted ? 0 : minted - back;
    }
  };

  /// Link a verified segment; `ids` holds its dependency slots (and
  /// should have room for its label and string ids, appended here).
  std::uint32_t link_loaded(std::shared_ptr<const Segment> seg,
                            std::vector<std::uint32_t> ids,
                            const SegmentFacts& facts);
  /// link() for a segment its referrers use in the roles `uses` (0: not
  /// referenced, any reading); `depth` bounds the recursion.
  std::uint32_t link_shipped(const SegmentGuid& guid,
                             const std::map<SegmentGuid, Segment>& pool,
                             std::uint8_t uses, std::size_t depth);
  /// Enqueue a frame made at a verified entry, its locals already sized.
  void spawn_frame(Frame f) {
    if (prof_.enabled()) f.enq_ns = clock_ns();
    queue_.push_back(std::move(f));
  }
  ExportEntry* find_export(NetRef::Kind kind, std::uint64_t heap_id);
  /// Mint kMintCredit against `e` (debtor and trace attribution as set);
  /// returns the credit to put on the wire.
  std::uint64_t mint(ExportEntry& e);
  /// Drop the entry if fully drained and unpinned; returns true if so.
  bool maybe_reclaim(NetRef::Kind kind, std::uint64_t heap_id);
  void free_channel(std::uint32_t idx);
  void free_netref(std::uint32_t idx);
  /// Execute one frame until it halts, parks, or the budget runs out.
  /// Returns instructions consumed; sets `requeue` if the frame must be
  /// put back (budget exhaustion). Cache-line aligned: the interpreter
  /// loop's speed otherwise moves about 10% with its address alone, so
  /// edits elsewhere in the binary would read as VM regressions.
  [[gnu::aligned(64)]] std::uint64_t exec(Frame& f, std::uint64_t budget,
                                          bool& requeue);
  /// Rule COMM: spawns the method of object segment `seg` that `label`
  /// selects, with locals env ++ args. On a missing method or an arity
  /// mismatch the object goes back to the head of `chan`'s queue.
  void reduce(std::uint32_t chan, std::uint32_t seg,
              std::span<const Value> env, std::uint32_t label,
              std::span<const Value> args);
  /// The message side of COMM: reduces against the first object waiting
  /// at `chan`; false (nothing done) when no object waits.
  bool meet_object(std::uint32_t chan, std::uint32_t label,
                   std::span<const Value> args);
  /// The object side of COMM: reduces against the first message waiting
  /// at `chan`; false (nothing done) when no message waits.
  bool meet_message(std::uint32_t chan, std::uint32_t seg,
                    std::span<const Value> env);
  /// A value vector for a new frame's locals or a queued entry, holding
  /// a copy of `a` ++ `b` padded to at least `size` values; reuses a
  /// recycled vector when one is spare.
  std::vector<Value> values(std::span<const Value> a,
                            std::span<const Value> b = {},
                            std::size_t size = 0);
  /// Keeps a dead frame's locals or a consumed entry's vector for reuse.
  void recycle(std::vector<Value>&& v);
  void error(const std::string& what) { errors_.push_back(name_ + ": " + what); }

  std::string name_;
  std::uint32_t node_id_, site_id_;
  RemoteBackend* backend_;

  std::vector<LinkedSegment> linked_;
  std::map<SegmentGuid, std::uint32_t> guid_to_slot_;
  std::uint32_t next_guid_index_ = 0;

  std::vector<Channel> heap_;
  std::map<std::string, std::uint32_t> globals_;  // free-name channels
  std::vector<Block> blocks_;
  std::vector<ClassEntry> classes_;
  SlotQueue<Frame> queue_;
  // Per-entry locals counts of every linked segment (see LinkedSegment).
  std::vector<std::uint16_t> entry_locals_;
  // The operand buffer of the frame inside exec(): link_loaded grows it
  // to the largest verified max_stack, so exec pushes without a check.
  // Nothing in it is live between frames (a frame leaving mid-expression
  // takes its operands along), so gc() — which runs only between slices
  // — finds every operand in a frame.
  std::vector<Value> stack_;
  // Recycled value vectors (see values()/recycle()): bounded in count
  // and per-vector capacity, so the pool holds at most 64 KiB.
  std::vector<std::vector<Value>> spare_;
  std::map<std::uint64_t, ParkedFrame> parked_;
  std::uint64_t next_token_ = 1;

  Interner strings_;
  Interner labels_;
  std::vector<NetRef> netrefs_;
  std::map<NetRef, std::uint32_t> netref_ids_;
  // Parallel to netrefs_: local GC credit balance and free-slot state.
  std::vector<std::uint64_t> netref_credit_;
  std::vector<std::uint8_t> netref_freed_;
  std::vector<std::uint32_t> free_netrefs_;

  // Parallel to heap_: free-slot state (slots are reused, never erased,
  // so channel indices held by live values stay stable).
  std::vector<std::uint8_t> chan_freed_;
  std::vector<std::uint32_t> free_chans_;

  // Export table: HeapId -> entry plus the reverse index for idempotent
  // export (paper §5, extended with GC credit accounting).
  std::map<std::uint32_t, std::uint64_t> chan_to_heapid_;
  std::map<std::uint32_t, std::uint64_t> class_to_heapid_;
  std::map<std::uint64_t, ExportEntry> chan_exports_;
  std::map<std::uint64_t, ExportEntry> class_exports_;
  std::uint64_t next_heap_id_ = 1;  // monotonic; ids are never reused

  // Releaser-side REL ledger: cumulative released credit per foreign
  // reference (never pruned — cum totals must only grow) and the subset
  // whose total changed since the last take_pending_releases().
  std::map<NetRef, std::uint64_t> rel_cum_;
  std::vector<NetRef> pending_rel_;
  bool gc_dirty_ = false;
  GcStats gc_stats_;
  std::uint32_t credit_peer_ = kNoPeer;
  std::uint64_t credit_trace_ = 0;

  std::uint64_t pending_msgs_ = 0;
  std::uint64_t pending_objs_ = 0;

  std::vector<std::string> output_;
  std::vector<std::string> errors_;
  obs::TraceRing* ring_ = nullptr;
  obs::Profiler prof_;
  std::uint64_t prof_countdown_ = 0;  // 0 = profiling off (see exec())
  obs::Histogram run_wait_us_;
  obs::Registry::Registration metrics_reg_;
  obs::Registry::Registration gauges_reg_;
  Stats stats_;
};

/// Ordering for NetRef so it can key maps.
inline bool operator<(const NetRef& a, const NetRef& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.node != b.node) return a.node < b.node;
  if (a.site != b.site) return a.site < b.site;
  return a.heap_id < b.heap_id;
}

}  // namespace dityco::vm
