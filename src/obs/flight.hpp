// Flight recorder: tail-based trace retention (observability, story 2).
//
// Uniform 1-in-N sampling (obs/trace.hpp) answers "what does typical
// traffic look like" but discards exactly the operations worth keeping:
// the slow FETCH, the malformed packet, the starved credit forward, the
// stale REL. The flight recorder closes that gap with a *post-hoc*
// policy: sites record every traced hop into their rings (the rings run
// in record-all mode while a recorder is attached), and when a mobility
// operation COMPLETES the recorder decides — completion latency above an
// absolute threshold or a percentile of the live distribution, or an
// error/starvation/REL-anomaly/network path — whether to promote that
// trace id. Promotion copies the id's events out of every attached ring
// into a small durable buffer before the rings overwrite them, so the
// uniform sample stream and the "always keep the slow and broken ones"
// stream coexist; TyCOmon serves the buffer at GET /flight as Chrome
// trace JSON.
//
// Mechanics: the recorder keeps no per-request state. The request
// ledger (obs/slo.hpp) times every SHIPM/SHIPO/FETCH from departure to
// completion on the sites' time base (virtual time under the sim
// driver, so the promotion decision is deterministic there) and offers
// each e2e completion to promote_if_slow, together with that
// operation's e2e histogram for the percentile rule. Sites, the daemon
// and the transport call promote() directly for the unconditional
// reasons. Promotion copies the id's events out of one snapshot of each
// attached ring.
//
// Thread safety: every entry point takes one mutex, and the recorder
// never calls out while holding it. Completions are per-remote-operation
// (not per-instruction), so the lock is off any hot path; ring reads go
// through TraceRing::snapshot(), which is safe against the owning
// producer by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dityco::obs {

/// Retention policy. Everything off by default: a default-constructed
/// recorder only promotes explicit error/starvation/REL/network events.
struct FlightPolicy {
  /// Promote completions at or above this many microseconds (0 = off).
  double slow_us = 0;
  /// Promote completions above this latency percentile of their
  /// operation's e2e histogram, this completion included (0 = off; e.g.
  /// 0.99 keeps the slowest ~1%). Needs pctl_min_samples completions of
  /// that operation before it starts firing, so early traffic is not
  /// all "slow".
  double slow_pctl = 0;
  std::uint64_t pctl_min_samples = 64;
  /// Flight-buffer capacity in promoted traces (oldest evicted first).
  std::size_t max_traces = 64;
};

class FlightRecorder {
 public:
  enum class Reason : std::uint8_t {
    kSlow = 1,    // completion latency over threshold/percentile
    kError,       // malformed packet / NS failure on this trace
    kStarved,     // marshalling shipped a zero-credit (weak) handle
    kRelAnomaly,  // owner saw a stale/duplicate REL for this trace
    kNetwork,     // transport path event (peer reconnect / write-off)
  };
  static const char* reason_name(Reason r);

  /// One promoted trace: every hop recovered from the rings, oldest
  /// first, plus why it was kept.
  struct Entry {
    std::uint64_t trace_id = 0;
    Reason reason = Reason::kSlow;
    double latency_us = 0;
    std::vector<TraceEvent> events;
  };

  void configure(const FlightPolicy& p);
  FlightPolicy policy() const;

  /// Register a ring to harvest promoted events from. The ring must
  /// outlive the recorder (Network owns both and attaches at
  /// enable_flight time).
  void attach_ring(const TraceRing* ring);

  /// One e2e completion from the request ledger, `latency_ns` long;
  /// `e2e` is its operation's latency histogram, this completion
  /// included. Applies the slow policy; returns true if promoted.
  bool promote_if_slow(std::uint64_t trace_id, std::uint64_t latency_ns,
                       const Histogram& e2e);
  /// Unconditional promotion (error / starvation / REL-anomaly paths).
  bool promote(std::uint64_t trace_id, Reason reason, double latency_us = 0);

  /// Promoted traces, oldest first.
  std::vector<Entry> snapshot() const;

  // Counters for the metrics exposition (atomic; any thread).
  std::uint64_t promoted_count(Reason r) const;
  std::uint64_t evicted() const { return evicted_.value(); }
  std::uint64_t duplicates() const { return duplicates_.value(); }

 private:
  bool promote_locked(std::uint64_t trace_id, Reason reason,
                      double latency_us);

  mutable std::mutex mu_;
  FlightPolicy policy_;
  std::vector<const TraceRing*> rings_;
  std::deque<Entry> buffer_;
  std::unordered_set<std::uint64_t> promoted_ids_;
  Counter promoted_slow_, promoted_error_, promoted_starved_, promoted_rel_,
      promoted_network_;
  Counter evicted_, duplicates_;
};

}  // namespace dityco::obs
