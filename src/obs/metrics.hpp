// Unified metrics registry (observability layer, part 1 of 3).
//
// The runtime previously exposed four disconnected counter structs
// (vm::Machine::Stats, calc::Reducer::Counters, core::NameService::Stats,
// core::Site::MobilityStats) with no common exposition. This registry
// gives them one roof without touching their hot paths:
//
//   * Counter / Gauge / Histogram are standalone atomic cells. Components
//     own their cells (pre-resolved handles: `++stats_.comm` compiles to
//     one relaxed fetch_add, or stays a plain increment for structs owned
//     by a single executor thread) and registry exposure never sits on a
//     hot path.
//   * Components publish through *collectors*: a callback that reads the
//     component's cells into a Collector sink. Registration is RAII, so a
//     destroyed site/machine silently drops out of the exposition.
//
// Exposition formats: Prometheus-style text and JSON.
//
// Thread safety: cells are atomic; the registry itself is mutex-guarded.
// Collector callbacks that read non-atomic fields (e.g. the VM's
// single-threaded Stats) must only be driven when the owning thread is at
// rest — i.e. call expose_*/snapshot() after run(), not during it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dityco::obs {

/// Monotonic counter cell. Copyable (a copy snapshots the value) so the
/// stats structs that embed it keep their value semantics.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& o) : v_(o.value()) {}
  Counter& operator=(const Counter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  Counter& operator++() {
    inc();
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    inc(n);
    return *this;
  }
  operator std::uint64_t() const { return value(); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Single-writer counter: only the owning thread increments, with a
/// plain load + store (no atomic RMW, so the hot path compiles to a
/// normal add), while any thread may read a consistent value. The shape
/// for per-component stats structs owned by one executor thread that
/// TyCOmon must still be able to scrape mid-run.
class SoloCounter {
 public:
  SoloCounter() = default;
  SoloCounter(const SoloCounter& o) : v_(o.value()) {}
  SoloCounter& operator=(const SoloCounter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  SoloCounter& operator++() {
    inc();
    return *this;
  }
  SoloCounter& operator+=(std::uint64_t n) {
    inc(n);
    return *this;
  }
  operator std::uint64_t() const { return value(); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depths, in-flight packets).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& o) : v_(o.value()) {}
  Gauge& operator=(const Gauge& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator std::int64_t() const { return value(); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear (HDR-style) histogram over uint64 values, recorded in the
/// unit the metric's name states (`_ns`, `_us`, `_ms`, `_bytes`, or a
/// plain count). Values below 64 land in exact unit buckets; above that
/// each power of two splits into 32 linear sub-buckets, so a quantile is
/// off by at most half a sub-bucket (<= ~1.6%) over the whole uint64
/// range. Recording is a few relaxed atomic operations (safe from any
/// thread, no lock); snapshots are plain data that merge associatively,
/// so same-named histograms from several sites or nodes fold into one.
/// The 1 920 buckets (15 KB) are allocated by the first record(), so a
/// histogram that never records (a site that never fetches, a VM that
/// is not profiled) costs a pointer.
///
/// Exposition (Prometheus `_bucket` lines and /metrics.json) uses one
/// fixed set of bounds, kExposedBounds of them: `le` = 2^k - 1 for
/// k = 1..40, then `+Inf`. Every power of two is the low edge of a
/// bucket, so the values `<= 2^k - 1` (values are integers: `< 2^k`)
/// fill exactly the buckets below the one starting at 2^k, and each
/// exposed cumulative count is exact rather than estimated. (`le` =
/// 2^k itself would not be for k >= 6: that bucket also holds 2^k + 1.)
class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;           // 32 sub-buckets
  static constexpr unsigned kSub = 1u << kSubBits;  // per power of two
  // Exponents 5..63 each contribute kSub buckets after the 32 exact
  // unit buckets: idx = (e - 4) * 32 + sub, max (63-4)*32+31 = 1919.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;
  static constexpr unsigned kExposedBounds = 40;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const auto sub =
        static_cast<std::size_t>((v >> (e - kSubBits)) & (kSub - 1));
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
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t min = 0;

    bool empty() const { return count == 0; }
    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
    /// Value at quantile q in [0,1]; midpoint of the covering bucket,
    /// clamped into [min, max] so p100 is exact.
    std::uint64_t quantile(double q) const;
    /// Cumulative counts at the exposed bounds: entry k-1 counts the
    /// values <= 2^k - 1, for k = 1..kExposedBounds.
    std::array<std::uint64_t, kExposedBounds> exposed_cumulative() const;
    /// Pointwise sum (associative and commutative).
    Snapshot& merge(const Snapshot& other);
  };

  Histogram() = default;
  // Movable (not copyable) so owners like vm::Machine stay movable;
  // moving is only safe while no other thread records or snapshots.
  Histogram(Histogram&& o) noexcept { *this = std::move(o); }
  Histogram& operator=(Histogram&& o) noexcept;
  ~Histogram() { delete buckets_.load(std::memory_order_relaxed); }

  void record(std::uint64_t v);
  Snapshot snapshot() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// The value a fraction q of the recorded values lie below, placed
  /// linearly inside the covering bucket (its values taken as spread
  /// evenly across it). Snapshot::quantile reports the bucket midpoint
  /// instead, which suits a printed percentile; a cut line such as "the
  /// slowest 1%" needs this, or a whole bucket falls on one side of it.
  double quantile_interpolated(double q) const;

 private:
  using Buckets = std::array<std::atomic<std::uint64_t>, kBuckets>;
  /// The first record's allocation; racing first records keep one.
  Buckets* allocate();

  std::atomic<Buckets*> buckets_{nullptr};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
};

/// Sink handed to collector callbacks; values land in the registry
/// snapshot under their fully-qualified name (labels embedded, e.g.
/// `vm_instructions{site="client"}`). Same-named values are summed.
class Collector {
 public:
  void counter(const std::string& name, std::uint64_t v);
  void gauge(const std::string& name, std::int64_t v);
  void histogram(const std::string& name, const Histogram::Snapshot& s);

 private:
  friend class Registry;
  std::map<std::string, std::uint64_t>* counters_ = nullptr;
  std::map<std::string, std::int64_t>* gauges_ = nullptr;
  std::map<std::string, Histogram::Snapshot>* histograms_ = nullptr;
};

using CollectFn = std::function<void(Collector&)>;

/// Escape a string for inclusion in a JSON string literal (metric names
/// carry embedded `label="value"` quotes).
std::string json_escape(std::string_view s);

class Registry {
 public:
  /// RAII collector registration: destroying the token (or the component
  /// holding it) removes the collector. Outliving the registry is a bug;
  /// the owning structure (e.g. Network) must destroy components first.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& o) noexcept { *this = std::move(o); }
    Registration& operator=(Registration&& o) noexcept;
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { reset(); }

    void reset();
    bool active() const { return reg_ != nullptr; }

   private:
    friend class Registry;
    Registration(Registry* r, std::uint64_t id) : reg_(r), id_(id) {}
    Registry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `live_safe` collectors only touch atomic cells (Counter/SoloCounter/
  /// Gauge/Histogram) and may be driven while the network executes —
  /// TyCOmon's live scrape path. Pass false for collectors that read
  /// plain fields or container sizes; those are skipped by a live-only
  /// snapshot and only run once the owning threads are at rest.
  [[nodiscard]] Registration add_collector(CollectFn fn,
                                           bool live_safe = true);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
  };

  /// Merged view of every registered collector. With `live_only`,
  /// collectors registered live_safe=false are skipped (scrape-while-
  /// running mode).
  Snapshot snapshot(bool live_only = false) const;
  /// Prometheus-style text exposition.
  std::string expose_text(bool live_only = false) const;
  /// The same snapshot as a JSON object.
  std::string expose_json(bool live_only = false) const;

 private:
  friend class Registration;
  void remove_collector(std::uint64_t id);

  struct CollectorEntry {
    CollectFn fn;
    bool live_safe = true;
  };

  mutable std::mutex mu_;
  std::map<std::uint64_t, CollectorEntry> collectors_;
  std::uint64_t next_id_ = 1;
};

}  // namespace dityco::obs
