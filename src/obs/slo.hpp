// Workload SLO plane (observability, story 3): tail latency as a
// first-class, alertable signal, kept in the runtime's one per-request
// record.
//
// Three pieces:
//
//   * Request ledger — keyed on the propagated trace id, one record
//     per in-flight mobility operation (SHIPM/SHIPO/FETCH). Sites feed
//     on_depart/on_complete and the TCP transport feeds
//     on_tcp_send/on_tcp_recv, so a completed request decomposes into
//     stages:
//       enqueue  depart -> tcp-send   (local queueing + marshalling)
//       remote   tcp-send -> tcp-recv (wire + remote processing)
//       reply    tcp-recv -> handled  (local delivery of the reply)
//       execute  tcp-recv -> handled on the SERVING node (a request
//                that arrived over the wire and was handled here; this
//                is the server-side view of a client's "remote" stage)
//     e2e latency is kept per operation kind, in nanosecond
//     obs::Histograms (log-linear, quantiles within ~1.6%).
//     Loopback/in-proc requests simply have no tcp stages — e2e still
//     records. Records that never complete expire after expire_ns.
//
//   * Flight policy — with a flight recorder attached (set_flight),
//     every e2e completion is offered to the recorder's slow policy:
//     an absolute threshold, or a percentile of that operation's e2e
//     histogram. The recorder keeps no ledger of its own.
//
//   * Objective + burn rate — set by configure(); a plane that was
//     never configured only keeps the ledger (a Network with the flight
//     recorder alone). The objective (latency threshold + error budget)
//     is evaluated over two sliding windows (default 30s/300s) of
//     per-second buckets. burn = bad_fraction / budget; the state
//     machine is ok -> warn -> page with both windows required to burn
//     (the standard multi-window alert: the short window gives speed,
//     the long window gives evidence). State transitions are
//     timestamped and kept for /slo; every transition also bumps a
//     counter so Prometheus sees flaps. Objective-violating trace ids
//     are promoted into the flight recorder (Reason::kSlow), so /flight
//     holds the offending timeline.
//
// Time base: every entry point takes an explicit now_ns on the caller's
// clock — virtual time under the sim driver (deterministic), wall time
// elsewhere, a fake clock in tests. The plane never reads a clock.
//
// Thread safety: histogram recording is lock-free; the ledger, wheel
// and transition log share one mutex (per-remote-operation, off the
// instruction hot path). The flight recorder's mutex is only ever
// taken inside this one, never the other way round.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace dityco::obs {

class FlightRecorder;

/// {"count":..,"p50_us":..,...} of a nanosecond histogram, for /slo and
/// tool output.
std::string latency_json(const Histogram::Snapshot& ns);

/// A latency objective plus the burn-rate alert shape around it.
struct SloObjective {
  /// "p99 < 5ms": a request slower than this is BAD (burns budget).
  std::uint64_t threshold_ns = 5'000'000;
  /// Error budget: the tolerated bad fraction (0.001 = 99.9% of
  /// requests within threshold). burn = bad_fraction / budget.
  double budget = 0.001;
  std::uint32_t short_window_s = 30;
  std::uint32_t long_window_s = 300;
  /// Both windows must burn at or above these multiples of budget.
  double warn_burn = 1.0;
  double page_burn = 6.0;
};

enum class SloState : std::uint8_t { kOk = 0, kWarn = 1, kPage = 2 };
const char* slo_state_name(SloState s);

/// Request ledger + objective evaluation. At most one per Network,
/// shared by all its sites.
class SloPlane {
 public:
  enum class Op : std::uint8_t { kMsg = 0, kObj = 1, kFetch = 2 };
  enum class Stage : std::uint8_t {
    kEnqueue = 0,
    kRemote = 1,
    kReply = 2,
    kExecute = 3,
  };
  static constexpr std::size_t kOps = 3;
  static constexpr std::size_t kStages = 4;
  static const char* op_name(Op op);
  static const char* stage_name(Stage s);

  struct Config {
    SloObjective objective;
    /// Ledger cap: beyond this many in-flight records new departures
    /// are dropped from latency tracking (never from execution).
    std::size_t max_inflight = 65536;
    /// Records older than this are swept as expired (a request whose
    /// completion carries a different trace id, or never came back).
    std::uint64_t expire_ns = 30'000'000'000ull;
  };

  /// Set the ledger bounds and the objective; from here on every
  /// completion is judged against the objective.
  void configure(const Config& cfg);
  Config config() const;
  /// True once configure() ran.
  bool has_objective() const;
  /// Slow e2e completions (by the recorder's policy) and, with an
  /// objective, violating trace ids are promoted here (may be null).
  void set_flight(FlightRecorder* flight);

  /// A traced SHIPM/SHIPO/FETCH left a local site at now_ns.
  void on_depart(std::uint64_t trace_id, Op op, std::uint64_t now_ns);
  /// The transport framed this trace id onto a socket.
  void on_tcp_send(std::uint64_t trace_id, std::uint64_t now_ns);
  /// The transport surfaced this trace id from a socket.
  void on_tcp_recv(std::uint64_t trace_id, std::uint64_t now_ns);
  /// The matching arrival/reply was handled at now_ns. Returns true if
  /// the request violated the objective.
  bool on_complete(std::uint64_t trace_id, std::uint64_t now_ns);
  /// A request that originated on ANOTHER node was served here (e.g.
  /// the kFetchReq side): closes only a server-side record (one opened
  /// by on_tcp_recv) into the execute stage. A record with a local
  /// departure is left alone — its completion is the reply, not the
  /// serve (the two coincide in a single-process network where client
  /// and server share this plane).
  bool on_served(std::uint64_t trace_id, std::uint64_t now_ns);
  /// Direct path for clients that measure e2e themselves (tycoload):
  /// record a finished request without ledger bookkeeping. A nonzero
  /// trace_id is promoted to flight on violation.
  bool record_value(Op op, std::uint64_t e2e_ns, std::uint64_t now_ns,
                    std::uint64_t trace_id = 0);

  struct Window {
    double burn = 0;  // bad_fraction / budget over the window
    std::uint64_t bad = 0;
    std::uint64_t total = 0;
  };
  struct BurnView {
    SloState state = SloState::kOk;
    Window short_w, long_w;
  };
  /// Pure read of the windows at now_ns (no state transition).
  BurnView burn(std::uint64_t now_ns) const;
  /// Recompute state at now_ns, recording a transition if it changed.
  /// Called internally on every completion; call explicitly to let a
  /// quiet period decay warn/page back to ok.
  SloState evaluate(std::uint64_t now_ns);
  SloState state() const;

  struct Transition {
    std::uint64_t ts_ns = 0;
    SloState from = SloState::kOk;
    SloState to = SloState::kOk;
  };
  std::vector<Transition> transitions() const;

  Histogram::Snapshot e2e_snapshot(Op op) const {
    return e2e_[static_cast<std::size_t>(op)].snapshot();
  }
  Histogram::Snapshot stage_snapshot(Stage s) const {
    return stage_[static_cast<std::size_t>(s)].snapshot();
  }

  // Counters (under the mutex; scrape-rate reads).
  std::uint64_t tracked() const;
  std::uint64_t completed() const;
  std::uint64_t executed() const;
  std::uint64_t violations() const;
  std::uint64_t expired() const;
  std::uint64_t dropped() const;
  std::uint64_t transitions_total() const;
  std::size_t inflight() const;

  /// The full /slo document. Sweeps expired records and re-evaluates
  /// the state first, so a quiet fleet decays to ok.
  std::string json(std::uint64_t now_ns);

 private:
  struct Rec {
    Op op = Op::kMsg;
    std::uint64_t depart_ns = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
  };
  struct Sec {  // one second of objective outcomes
    std::uint64_t sec = ~std::uint64_t{0};
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  static constexpr std::size_t kWheel = 512;  // covers long_window_s

  void wheel_record_locked(bool bad, std::uint64_t now_ns);
  Window window_locked(std::uint32_t window_s, std::uint64_t now_ns) const;
  SloState evaluate_locked(std::uint64_t now_ns);
  /// Record one e2e latency and offer it to the flight policy.
  void record_e2e_locked(Op op, std::uint64_t lat_ns, std::uint64_t trace_id);
  bool judge_locked(std::uint64_t lat_ns, std::uint64_t trace_id,
                    std::uint64_t now_ns);
  /// Expire old records, at most once per expire_ns / 16 of clock time.
  void maybe_sweep_locked(std::uint64_t now_ns);
  void sweep_locked(std::uint64_t now_ns);

  mutable std::mutex mu_;
  Config cfg_;
  FlightRecorder* flight_ = nullptr;
  bool objective_on_ = false;
  std::unordered_map<std::uint64_t, Rec> ledger_;
  std::uint64_t next_sweep_ns_ = 0;
  std::array<Sec, kWheel> wheel_{};
  SloState state_ = SloState::kOk;
  std::vector<Transition> transitions_;
  std::uint64_t tracked_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transitions_total_ = 0;
  std::array<Histogram, kOps> e2e_;
  std::array<Histogram, kStages> stage_;
};

}  // namespace dityco::obs
