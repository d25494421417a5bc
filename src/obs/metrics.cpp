#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dityco::obs {

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram& Histogram::operator=(Histogram&& o) noexcept {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  delete buckets_.exchange(o.buckets_.exchange(nullptr, kRelaxed), kRelaxed);
  count_.store(o.count_.exchange(0, kRelaxed), kRelaxed);
  sum_.store(o.sum_.exchange(0, kRelaxed), kRelaxed);
  max_.store(o.max_.exchange(0, kRelaxed), kRelaxed);
  min_.store(o.min_.exchange(~std::uint64_t{0}, kRelaxed), kRelaxed);
  return *this;
}

Histogram::Buckets* Histogram::allocate() {
  auto* fresh = new Buckets{};
  Buckets* seen = nullptr;
  if (buckets_.compare_exchange_strong(seen, fresh,
                                       std::memory_order_acq_rel))
    return fresh;
  delete fresh;
  return seen;
}

void Histogram::record(std::uint64_t v) {
  Buckets* b = buckets_.load(std::memory_order_acquire);
  if (b == nullptr) b = allocate();
  (*b)[index_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  const Buckets* b = buckets_.load(std::memory_order_acquire);
  s.count = count_.load(std::memory_order_relaxed);
  if (b == nullptr || s.count == 0) return {};
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.counts.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.counts[i] = (*b)[i].load(std::memory_order_relaxed);
  return s;
}

double Histogram::quantile_interpolated(double q) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const Buckets* b = buckets_.load(std::memory_order_acquire);
  const std::uint64_t n = count_.load(kRelaxed);
  if (b == nullptr || n == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  const std::size_t top = index_of(max_.load(kRelaxed));
  std::uint64_t cum = 0;
  for (std::size_t i = index_of(min_.load(kRelaxed)); i <= top; ++i) {
    const std::uint64_t c = (*b)[i].load(kRelaxed);
    if (c != 0 && static_cast<double>(cum + c) >= rank) {
      const double into =
          (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return static_cast<double>(bucket_low(i)) +
             into * static_cast<double>(bucket_width(i));
    }
    cum += c;
  }
  return static_cast<double>(max_.load(kRelaxed));
}

std::uint64_t Histogram::Snapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) {
      const std::uint64_t mid = bucket_low(i) + bucket_width(i) / 2;
      return std::clamp(mid, min, max);
    }
  }
  return max;
}

std::array<std::uint64_t, Histogram::kExposedBounds>
Histogram::Snapshot::exposed_cumulative() const {
  std::array<std::uint64_t, kExposedBounds> out{};
  if (counts.empty()) return out;
  std::uint64_t cum = 0;
  std::size_t i = 0;
  for (unsigned k = 1; k <= kExposedBounds; ++k) {
    // The bucket starting at 2^k is the first one not counted.
    for (const std::size_t end = index_of(std::uint64_t{1} << k); i < end;
         ++i)
      cum += counts[i];
    out[k - 1] = cum;
  }
  return out;
}

Histogram::Snapshot& Histogram::Snapshot::merge(const Snapshot& other) {
  if (other.count == 0) return *this;
  if (count == 0) {
    *this = other;
    return *this;
  }
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  min = std::min(min, other.min);
  return *this;
}

// ---------------------------------------------------------------------
// Collector sink
// ---------------------------------------------------------------------

void Collector::counter(const std::string& name, std::uint64_t v) {
  (*counters_)[name] += v;
}

void Collector::gauge(const std::string& name, std::int64_t v) {
  (*gauges_)[name] += v;
}

void Collector::histogram(const std::string& name,
                          const Histogram::Snapshot& s) {
  // Same name from several components (e.g. one histogram per site under
  // an aggregate name) folds into one distribution.
  (*histograms_)[name].merge(s);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry::Registration& Registry::Registration::operator=(
    Registration&& o) noexcept {
  if (this != &o) {
    reset();
    reg_ = o.reg_;
    id_ = o.id_;
    o.reg_ = nullptr;
    o.id_ = 0;
  }
  return *this;
}

void Registry::Registration::reset() {
  if (reg_) reg_->remove_collector(id_);
  reg_ = nullptr;
  id_ = 0;
}

Registry::Registration Registry::add_collector(CollectFn fn,
                                               bool live_safe) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_id_++;
  collectors_.emplace(id, CollectorEntry{std::move(fn), live_safe});
  return Registration(this, id);
}

void Registry::remove_collector(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  collectors_.erase(id);
}

Registry::Snapshot Registry::snapshot(bool live_only) const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot s;
  Collector sink;
  sink.counters_ = &s.counters;
  sink.gauges_ = &s.gauges;
  sink.histograms_ = &s.histograms;
  for (const auto& [id, entry] : collectors_)
    if (!live_only || entry.live_safe) entry.fn(sink);
  return s;
}

namespace {

/// Splice a `le` label into a (possibly already labelled) metric name:
/// `x{site="a"}` -> `x_bucket{site="a",le="8"}`, `x` -> `x_bucket{le="8"}`.
std::string with_suffix_and_le(const std::string& name,
                               const std::string& suffix,
                               const std::string& le) {
  const auto brace = name.find('{');
  std::string base = name.substr(0, brace);
  std::string labels =
      brace == std::string::npos
          ? ""
          : name.substr(brace + 1, name.size() - brace - 2);  // strip {}
  if (!le.empty()) {
    if (!labels.empty()) labels += ",";
    labels += "le=\"" + le + "\"";
  }
  std::string out = base + suffix;
  if (!labels.empty()) out += "{" + labels + "}";
  return out;
}

/// The exposed `le` of power k: 2^k - 1, the largest integer below the
/// bucket edge at 2^k (see Histogram).
std::string le_bound(unsigned k) {
  return std::to_string((std::uint64_t{1} << k) - 1);
}

}  // namespace

std::string Registry::expose_text(bool live_only) const {
  const Snapshot s = snapshot(live_only);
  std::string out;
  for (const auto& [name, v] : s.counters)
    out += name + " " + std::to_string(v) + "\n";
  for (const auto& [name, v] : s.gauges)
    out += name + " " + std::to_string(v) + "\n";
  for (const auto& [name, h] : s.histograms) {
    const auto cum = h.exposed_cumulative();
    for (unsigned k = 1; k <= Histogram::kExposedBounds; ++k)
      out += with_suffix_and_le(name, "_bucket", le_bound(k)) + " " +
             std::to_string(cum[k - 1]) + "\n";
    out += with_suffix_and_le(name, "_bucket", "+Inf") + " " +
           std::to_string(h.count) + "\n";
    out += with_suffix_and_le(name, "_sum", "") + " " +
           std::to_string(h.sum) + "\n";
    out += with_suffix_and_le(name, "_count", "") + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Registry::expose_json(bool live_only) const {
  const Snapshot s = snapshot(live_only);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":{\"bounds\":[";
    for (unsigned k = 1; k <= Histogram::kExposedBounds; ++k) {
      if (k > 1) out += ",";
      out += le_bound(k);
    }
    // Per-interval counts, the last one above the largest bound.
    out += "],\"counts\":[";
    std::uint64_t below = 0;
    for (const std::uint64_t cum : h.exposed_cumulative()) {
      out += std::to_string(cum - below) + ",";
      below = cum;
    }
    out += std::to_string(h.count - below) +
           "],\"sum\":" + std::to_string(h.sum) +
           ",\"count\":" + std::to_string(h.count) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace dityco::obs
