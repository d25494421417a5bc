#include "obs/flight.hpp"

#include <algorithm>

namespace dityco::obs {

const char* FlightRecorder::reason_name(Reason r) {
  switch (r) {
    case Reason::kSlow: return "slow";
    case Reason::kError: return "error";
    case Reason::kStarved: return "starved";
    case Reason::kRelAnomaly: return "rel-anomaly";
    case Reason::kNetwork: return "network";
  }
  return "?";
}

void FlightRecorder::configure(const FlightPolicy& p) {
  std::lock_guard<std::mutex> lk(mu_);
  policy_ = p;
}

FlightPolicy FlightRecorder::policy() const {
  std::lock_guard<std::mutex> lk(mu_);
  return policy_;
}

void FlightRecorder::attach_ring(const TraceRing* ring) {
  std::lock_guard<std::mutex> lk(mu_);
  if (std::find(rings_.begin(), rings_.end(), ring) == rings_.end())
    rings_.push_back(ring);
}

bool FlightRecorder::promote_if_slow(std::uint64_t trace_id,
                                     std::uint64_t latency_ns,
                                     const Histogram& e2e) {
  if (trace_id == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  const double latency_us = static_cast<double>(latency_ns) / 1e3;
  bool slow = policy_.slow_us > 0 && latency_us >= policy_.slow_us;
  if (!slow && policy_.slow_pctl > 0 &&
      e2e.count() >= policy_.pctl_min_samples)
    slow = static_cast<double>(latency_ns) >
           e2e.quantile_interpolated(policy_.slow_pctl);
  if (!slow) return false;
  return promote_locked(trace_id, Reason::kSlow, latency_us);
}

bool FlightRecorder::promote(std::uint64_t trace_id, Reason reason,
                             double latency_us) {
  if (trace_id == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  return promote_locked(trace_id, reason, latency_us);
}

bool FlightRecorder::promote_locked(std::uint64_t trace_id, Reason reason,
                                    double latency_us) {
  if (promoted_ids_.count(trace_id)) {
    ++duplicates_;
    return false;
  }
  Entry e;
  e.trace_id = trace_id;
  e.reason = reason;
  e.latency_us = latency_us;
  // One pass over a snapshot of each ring: under record-all tracing the
  // rings move on between any two promotions, so no index over them
  // would stay valid.
  for (const TraceRing* ring : rings_)
    for (const TraceEvent& ev : ring->snapshot())
      if (ev.trace_id == trace_id) e.events.push_back(ev);
  std::stable_sort(e.events.begin(), e.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  promoted_ids_.insert(trace_id);
  buffer_.push_back(std::move(e));
  while (buffer_.size() > policy_.max_traces) {
    buffer_.pop_front();
    ++evicted_;
  }
  switch (reason) {
    case Reason::kSlow: ++promoted_slow_; break;
    case Reason::kError: ++promoted_error_; break;
    case Reason::kStarved: ++promoted_starved_; break;
    case Reason::kRelAnomaly: ++promoted_rel_; break;
    case Reason::kNetwork: ++promoted_network_; break;
  }
  return true;
}

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {buffer_.begin(), buffer_.end()};
}

std::uint64_t FlightRecorder::promoted_count(Reason r) const {
  switch (r) {
    case Reason::kSlow: return promoted_slow_.value();
    case Reason::kError: return promoted_error_.value();
    case Reason::kStarved: return promoted_starved_.value();
    case Reason::kRelAnomaly: return promoted_rel_.value();
    case Reason::kNetwork: return promoted_network_.value();
  }
  return 0;
}

}  // namespace dityco::obs
