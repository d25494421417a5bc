// Workload SLO plane (observability, story 3): tail latency as a
// first-class, alertable signal.
//
// Three pieces, smallest first:
//
//   * SloHistogram — a log-linear (HDR-style) latency histogram over
//     nanoseconds. Values below 32ns land in exact unit buckets; above
//     that each power of two splits into 32 linear sub-buckets, so the
//     relative quantile error is bounded by half a sub-bucket width
//     (<= ~1.6%) from sub-microsecond to centuries. Recording is a
//     single relaxed atomic increment (safe from any thread, no lock);
//     snapshots are plain structs that merge associatively, so per-node
//     histograms can be stitched into one fleet view.
//
//   * Request ledger — keyed on the propagated trace id, one record
//     per in-flight mobility operation (SHIPM/SHIPO/FETCH). Sites feed
//     on_depart/on_complete (the same hook points as the flight
//     recorder) and the TCP transport feeds on_tcp_send/on_tcp_recv, so
//     a completed request decomposes into stages:
//       enqueue  depart -> tcp-send   (local queueing + marshalling)
//       remote   tcp-send -> tcp-recv (wire + remote processing)
//       reply    tcp-recv -> handled  (local delivery of the reply)
//       execute  tcp-recv -> handled on the SERVING node (a request
//                that arrived over the wire and was handled here; this
//                is the server-side view of a client's "remote" stage)
//     e2e latency is kept per operation kind. Loopback/in-proc requests
//     simply have no tcp stages — e2e still records.
//
//   * Objective + burn rate — a configurable objective (latency
//     threshold + error budget) evaluated over two sliding windows
//     (default 30s/300s) of per-second buckets. burn = bad_fraction /
//     budget; the state machine is ok -> warn -> page with both windows
//     required to burn (the standard multi-window alert: the short
//     window gives speed, the long window gives evidence). State
//     transitions are timestamped and kept for /slo; every transition
//     also bumps a counter so Prometheus sees flaps. Objective-violating
//     trace ids are promoted into the flight recorder (Reason::kSlow),
//     so /flight holds the offending timeline.
//
// Time base: every entry point takes an explicit now_ns on the caller's
// clock — virtual time under the sim driver (deterministic), wall time
// elsewhere, a fake clock in tests. The plane never reads a clock.
//
// Thread safety: histogram recording is lock-free; the ledger, wheel
// and transition log share one mutex (per-remote-operation, off the
// instruction hot path, same discipline as FlightRecorder).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dityco::obs {

class FlightRecorder;

/// Log-linear latency histogram over uint64 nanoseconds.
class SloHistogram {
 public:
  static constexpr unsigned kSubBits = 5;           // 32 sub-buckets
  static constexpr unsigned kSub = 1u << kSubBits;  // per power of two
  // Exponents 5..63 each contribute kSub buckets after the 32 exact
  // unit buckets: idx = (e - 4) * 32 + sub, max (63-4)*32+31 = 1919.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned e = static_cast<unsigned>(std::bit_width(ns)) - 1;
    const auto sub =
        static_cast<std::size_t>((ns >> (e - kSubBits)) & (kSub - 1));
    return static_cast<std::size_t>(e - (kSubBits - 1)) * kSub + sub;
  }
  /// Smallest value mapping to bucket `idx`.
  static std::uint64_t bucket_low(std::size_t idx) {
    if (idx < 2 * kSub) return idx;  // exact through e = kSubBits
    const unsigned e = static_cast<unsigned>(idx / kSub) + (kSubBits - 1);
    const std::uint64_t sub = idx % kSub;
    return (std::uint64_t{1} << e) | (sub << (e - kSubBits));
  }
  /// Width of bucket `idx` (1 for the exact range).
  static std::uint64_t bucket_width(std::size_t idx) {
    if (idx < 2 * kSub) return 1;
    const unsigned e = static_cast<unsigned>(idx / kSub) + (kSubBits - 1);
    return std::uint64_t{1} << (e - kSubBits);
  }

  /// Mergeable point-in-time copy; plain data, no atomics.
  struct Snapshot {
    std::vector<std::uint64_t> counts;  // kBuckets entries (or empty)
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t min_ns = 0;

    bool empty() const { return count == 0; }
    double mean_ns() const {
      return count ? static_cast<double>(sum_ns) / static_cast<double>(count)
                   : 0.0;
    }
    /// Value at quantile q in [0,1]; midpoint of the covering bucket,
    /// clamped into [min_ns, max_ns] so p100 is exact.
    std::uint64_t quantile_ns(double q) const;
    double quantile_us(double q) const {
      return static_cast<double>(quantile_ns(q)) / 1e3;
    }
    /// Pointwise sum (associative and commutative).
    Snapshot& merge(const Snapshot& other);
    /// {"count":..,"p50_us":..,...} for /slo and tool output.
    std::string json() const;
  };

  void record(std::uint64_t ns);
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
};

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

/// Per-site request ledger + objective evaluation. One per Network
/// (shared by all its sites, like the FlightRecorder).
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

  void configure(const Config& cfg);
  Config config() const;
  /// Violating trace ids are promoted here (may be null).
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

  SloHistogram::Snapshot e2e_snapshot(Op op) const {
    return e2e_[static_cast<std::size_t>(op)].snapshot();
  }
  SloHistogram::Snapshot stage_snapshot(Stage s) const {
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
  bool judge_locked(std::uint64_t lat_ns, std::uint64_t trace_id,
                    std::uint64_t now_ns);
  void sweep_locked(std::uint64_t now_ns);

  mutable std::mutex mu_;
  Config cfg_;
  FlightRecorder* flight_ = nullptr;
  std::unordered_map<std::uint64_t, Rec> ledger_;
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
  std::array<SloHistogram, kOps> e2e_;
  std::array<SloHistogram, kStages> stage_;
};

}  // namespace dityco::obs
