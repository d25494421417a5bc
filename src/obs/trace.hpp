// Causal event tracing (observability layer, part 2 of 3).
//
// Each site (and each node daemon) owns a TraceRing: a fixed-capacity,
// single-producer ring buffer of typed events stamped with a
// steady_clock timestamp, the recording site, and a *trace id*. Trace
// ids are allocated at the departure side of a mobility operation
// (SHIPM/SHIPO/FETCH/NS traffic) and propagated through the wire format
// (core/wire.hpp), so one logical operation can be followed
// across sites and nodes: departure, daemon hops, service handling and
// arrival all carry the same id. obs/export.hpp merges the rings into a
// Chrome trace-event / Perfetto timeline with flow arrows along each id.
//
// Rings are default-off: a disabled ring's record() is a single branch,
// so tracing costs nothing unless enabled. record() must only be called
// by the ring's owning thread (the site executor or the node daemon).
// Slots are stored as relaxed atomics published through the head
// counter, so snapshot() may run concurrently with the producer (this
// is what lets TyCOmon serve GET /trace mid-run): a concurrent snapshot
// sees a consistent prefix; if the ring wraps during the copy the
// overtaken entries are dropped, and at most the oldest surviving entry
// can mix fields of two events. Post-quiescence snapshots are exact.
//
// Sampling: long-running networks overwhelm a fixed ring
// (site_trace_dropped measures the loss). set_sampling(N, seed) keeps
// 1-in-N trace ids; the keep/skip decision is a deterministic hash of
// the id, made once when the id is allocated and carried across the
// wire (kSampledFlag), so a sampled operation is recorded at *every*
// hop while an unsampled one costs a single branch per record site.
// Local events with trace id 0 (COMM/INST/run-slices) are unaffected.
//
// Virtual time: the simulated-cluster driver calls set_virtual_time()
// with each site's virtual clock before driving it, so trace timestamps
// match the simulated makespan instead of the simulation's wall clock.
#pragma once

#include <cstdint>
#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace dityco::obs {

enum class EventType : std::uint8_t {
  kComm = 1,      // local COMM reduction (message met object)
  kInst,          // local INST reduction (class instantiation)
  kShipMsgOut,    // SHIPM departure            arg = packet bytes
  kShipMsgIn,     // SHIPM arrival              arg = packet bytes
  kShipObjOut,    // SHIPO departure            arg = packet bytes
  kShipObjIn,     // SHIPO arrival              arg = packet bytes
  kFetchReq,      // FETCH request issued       arg = packet bytes
  kFetchHit,      // dynamic-link cache hit (no wire traffic)
  kFetchServed,   // FETCH request answered     arg = reply bytes
  kFetchReply,    // FETCH reply linked         arg = reply bytes
  kNsExport,      // name-service export (site issue / node service)
  kNsLookup,      // name-service lookup (site issue / node service)
  kNsReply,       // name-service reply arrival
  kPacketSend,    // site sent a packet to another node    arg = bytes
  kPacketRecv,    // site took a packet from another node  arg = bytes
  kSliceBegin,    // run-slice started
  kSliceEnd,      // run-slice finished         arg = instructions executed
  kRelOut,        // GC REL packet departure    arg = records it carries
  kRelIn,         // GC REL record applied      arg = cumulative credit
  kTcpSend,       // frame queued to a peer socket   arg = dst node
  kTcpRecv,       // frame arrived off the socket    arg = src node
  kTcpReconnect,  // outbound connection re-established  arg = peer node
  kTcpPeerDead,   // peer confirmed dead, queue written off  arg = peer node
};

const char* event_name(EventType t);
/// The inverse of event_name: the first type rendered as `name` (the
/// run-slice pair answers kSliceBegin), or nothing for a name no type
/// has.
std::optional<EventType> event_type_named(std::string_view name);

/// Sentinel "site" id used by a node daemon's ring (a daemon is not a
/// site; exporters render it as its own thread line).
constexpr std::uint32_t kDaemonSite = 0xffffffffu;
/// Sentinel "site" id used by a TCP transport's ring: the socket-level
/// hops underneath the daemon's packet-send/packet-recv events.
constexpr std::uint32_t kTcpSite = 0xfffffffeu;

struct TraceEvent {
  EventType type = EventType::kComm;
  std::uint32_t node = 0;
  std::uint32_t site = 0;
  std::uint64_t trace_id = 0;  // 0 = purely local, no cross-site flow
  std::uint64_t arg = 0;
  std::uint64_t ts_ns = 0;     // steady_clock (or virtual time, sim mode)
};

/// Fresh non-zero trace id (process-global).
std::uint64_t next_trace_id();

/// steady_clock now, in nanoseconds.
std::uint64_t trace_now_ns();

/// Deterministic 1-in-`every` sampling decision for a trace id (a
/// splitmix64-style hash of id ^ seed). every <= 1 keeps everything;
/// the same (id, every, seed) always yields the same answer, so every
/// site of a network configured alike agrees on the sampled id set.
bool trace_id_sampled(std::uint64_t id, std::uint64_t every,
                      std::uint64_t seed);

/// A freshly allocated trace id plus its sampling decision. Unsampled
/// operations still carry their id on the wire (causality is preserved
/// for e.g. FETCH reply routing) but no hop records events for them.
struct TraceTag {
  std::uint64_t id = 0;
  bool sampled = true;
};

class TraceRing {
 public:
  TraceRing() = default;
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Allocate `capacity` slots (rounded up to a power of two) and start
  /// recording. The origin (node, site) stamps every event.
  void enable(std::size_t capacity, std::uint32_t node, std::uint32_t site);
  bool enabled() const { return mask_ != 0; }

  /// Keep 1-in-`every` trace ids (see trace_id_sampled); every <= 1
  /// disables sampling. Owner thread only, like record().
  void set_sampling(std::uint64_t every, std::uint64_t seed) {
    every_ = every < 1 ? 1 : every;
    seed_ = seed;
  }
  /// Sampling decision for a freshly allocated id; counts the outcome
  /// in sampled()/unsampled(). Called by the owning thread at trace-id
  /// allocation time.
  bool sample(std::uint64_t trace_id) {
    const bool keep = trace_id_sampled(trace_id, every_, seed_);
    auto& cell = keep ? sampled_ : unsampled_;
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    return keep;
  }
  std::uint64_t sample_every() const { return every_; }
  std::uint64_t sample_seed() const { return seed_; }
  std::uint64_t sampled() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  std::uint64_t unsampled() const {
    return unsampled_.load(std::memory_order_relaxed);
  }

  /// Stamp subsequent events with this virtual timestamp instead of
  /// steady_clock (simulated-cluster driver). Owner thread only.
  void set_virtual_time(std::uint64_t ts_ns) {
    virtual_mode_ = true;
    virtual_now_ns_ = ts_ns;
  }

  /// The timestamp record() would use right now: the virtual clock in
  /// sim mode, steady_clock otherwise. Lets latency measurements (FETCH
  /// RTT, flight-recorder completions) share the ring's time base.
  std::uint64_t now_ns() const {
    return virtual_mode_ ? virtual_now_ns_ : trace_now_ns();
  }

  /// Tail-based retention (obs/flight.hpp) needs every traced hop in
  /// the ring regardless of the wire sampling bit — the slow operation
  /// worth keeping is usually an unsampled one. record_all makes
  /// should_record() ignore `sampled`; exporters that want the 1-in-N
  /// view re-filter with trace_id_sampled().
  void set_record_all(bool on) { record_all_ = on; }
  bool record_all() const { return record_all_; }
  /// Should an event for a packet with this sampling bit be recorded?
  bool should_record(bool sampled) const {
    return mask_ != 0 && (sampled || record_all_);
  }

  void record(EventType t, std::uint64_t trace_id, std::uint64_t arg = 0) {
    if (mask_ == 0) return;
    record_at(virtual_mode_ ? virtual_now_ns_ : trace_now_ns(), t, trace_id,
              arg);
  }
  /// Record with a caller-captured timestamp (e.g. a slice's begin time).
  void record_at(std::uint64_t ts_ns, EventType t, std::uint64_t trace_id,
                 std::uint64_t arg = 0);

  /// Events still in the ring, oldest first. Non-destructive. Safe to
  /// call from any thread while the producer records (see file header
  /// for the concurrent-snapshot caveats).
  std::vector<TraceEvent> snapshot() const;
  /// Total events ever recorded (snapshot() returns at most `capacity`
  /// of them; the difference is how many the ring overwrote).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    const std::uint64_t h = recorded();
    return h > capacity_ ? h - capacity_ : 0;
  }

 private:
  // One event, stored as independent relaxed atomics so a concurrent
  // snapshot() is race-free; the node/site origin is constant per ring
  // and lives outside the slot.
  struct Slot {
    std::atomic<std::uint64_t> type{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> ts_ns{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;  // capacity - 1; 0 = disabled
  std::uint32_t node_ = 0, site_ = 0;
  std::uint64_t every_ = 1, seed_ = 0;
  bool virtual_mode_ = false;
  bool record_all_ = false;
  std::uint64_t virtual_now_ns_ = 0;
  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> unsampled_{0};
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace dityco::obs
