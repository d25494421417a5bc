#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight.hpp"

namespace dityco::obs {

std::string latency_json(const Histogram::Snapshot& ns) {
  const auto us = [](std::uint64_t v) { return static_cast<double>(v) / 1e3; };
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "{\"count\":%llu,\"min_us\":%.3f,\"mean_us\":%.3f,\"p50_us\":%.3f,"
      "\"p90_us\":%.3f,\"p99_us\":%.3f,\"p999_us\":%.3f,\"max_us\":%.3f}",
      static_cast<unsigned long long>(ns.count), ns.count ? us(ns.min) : 0.0,
      ns.mean() / 1e3, us(ns.quantile(0.50)), us(ns.quantile(0.90)),
      us(ns.quantile(0.99)), us(ns.quantile(0.999)), us(ns.max));
  return buf;
}

// ---------------------------------------------------------------------
// SloPlane
// ---------------------------------------------------------------------

const char* slo_state_name(SloState s) {
  switch (s) {
    case SloState::kOk: return "ok";
    case SloState::kWarn: return "warn";
    case SloState::kPage: return "page";
  }
  return "?";
}

const char* SloPlane::op_name(Op op) {
  switch (op) {
    case Op::kMsg: return "msg";
    case Op::kObj: return "obj";
    case Op::kFetch: return "fetch";
  }
  return "?";
}

const char* SloPlane::stage_name(Stage s) {
  switch (s) {
    case Stage::kEnqueue: return "enqueue";
    case Stage::kRemote: return "remote";
    case Stage::kReply: return "reply";
    case Stage::kExecute: return "execute";
  }
  return "?";
}

void SloPlane::configure(const Config& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = cfg;
  // The wheel must cover the long window plus slack for lagging writes.
  cfg_.objective.long_window_s =
      std::min<std::uint32_t>(cfg_.objective.long_window_s, kWheel - 8);
  cfg_.objective.short_window_s = std::min(cfg_.objective.short_window_s,
                                           cfg_.objective.long_window_s);
  if (cfg_.objective.budget <= 0) cfg_.objective.budget = 1e-9;
  objective_on_ = true;
}

SloPlane::Config SloPlane::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_;
}

bool SloPlane::has_objective() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objective_on_;
}

void SloPlane::set_flight(FlightRecorder* flight) {
  std::lock_guard<std::mutex> lock(mu_);
  flight_ = flight;
}

void SloPlane::on_depart(std::uint64_t trace_id, Op op,
                         std::uint64_t now_ns) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  maybe_sweep_locked(now_ns);
  if (ledger_.size() >= cfg_.max_inflight) {
    ++dropped_;
    return;
  }
  Rec& r = ledger_[trace_id];
  r.op = op;
  r.depart_ns = now_ns;
  ++tracked_;
}

void SloPlane::on_tcp_send(std::uint64_t trace_id, std::uint64_t now_ns) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledger_.find(trace_id);
  if (it == ledger_.end() || it->second.depart_ns == 0) return;
  Rec& r = it->second;
  if (r.send_ns != 0) return;  // first socket hop wins (fan-out ships)
  r.send_ns = now_ns;
  if (now_ns >= r.depart_ns)
    stage_[static_cast<std::size_t>(Stage::kEnqueue)].record(now_ns -
                                                             r.depart_ns);
}

void SloPlane::on_tcp_recv(std::uint64_t trace_id, std::uint64_t now_ns) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledger_.find(trace_id);
  if (it != ledger_.end()) {
    Rec& r = it->second;
    if (r.recv_ns != 0) return;
    r.recv_ns = now_ns;
    if (r.send_ns != 0 && now_ns >= r.send_ns)
      stage_[static_cast<std::size_t>(Stage::kRemote)].record(now_ns -
                                                              r.send_ns);
    return;
  }
  // A request that originated elsewhere: open a server-side record so
  // its handling latency lands in the execute stage on this node.
  if (ledger_.size() >= cfg_.max_inflight) {
    ++dropped_;
    return;
  }
  Rec& r = ledger_[trace_id];
  r.recv_ns = now_ns;
}

bool SloPlane::on_complete(std::uint64_t trace_id, std::uint64_t now_ns) {
  if (trace_id == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledger_.find(trace_id);
  if (it == ledger_.end()) return false;
  const Rec r = it->second;
  ledger_.erase(it);
  std::uint64_t lat = 0;
  if (r.depart_ns != 0) {
    if (now_ns >= r.depart_ns) lat = now_ns - r.depart_ns;
    if (r.recv_ns != 0 && now_ns >= r.recv_ns)
      stage_[static_cast<std::size_t>(Stage::kReply)].record(now_ns -
                                                             r.recv_ns);
    record_e2e_locked(r.op, lat, trace_id);
  } else {
    if (now_ns >= r.recv_ns) lat = now_ns - r.recv_ns;
    stage_[static_cast<std::size_t>(Stage::kExecute)].record(lat);
    ++executed_;
  }
  return judge_locked(lat, trace_id, now_ns);
}

bool SloPlane::on_served(std::uint64_t trace_id, std::uint64_t now_ns) {
  if (trace_id == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledger_.find(trace_id);
  if (it == ledger_.end() || it->second.depart_ns != 0) return false;
  const Rec r = it->second;
  ledger_.erase(it);
  std::uint64_t lat = 0;
  if (now_ns >= r.recv_ns) lat = now_ns - r.recv_ns;
  stage_[static_cast<std::size_t>(Stage::kExecute)].record(lat);
  ++executed_;
  return judge_locked(lat, trace_id, now_ns);
}

bool SloPlane::record_value(Op op, std::uint64_t e2e_ns, std::uint64_t now_ns,
                            std::uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  record_e2e_locked(op, e2e_ns, trace_id);
  return judge_locked(e2e_ns, trace_id, now_ns);
}

void SloPlane::record_e2e_locked(Op op, std::uint64_t lat_ns,
                                 std::uint64_t trace_id) {
  Histogram& h = e2e_[static_cast<std::size_t>(op)];
  h.record(lat_ns);
  ++completed_;
  if (flight_ != nullptr && trace_id != 0)
    flight_->promote_if_slow(trace_id, lat_ns, h);
}

bool SloPlane::judge_locked(std::uint64_t lat_ns, std::uint64_t trace_id,
                            std::uint64_t now_ns) {
  if (!objective_on_) return false;
  const bool bad = lat_ns > cfg_.objective.threshold_ns;
  wheel_record_locked(bad, now_ns);
  if (bad) {
    ++violations_;
    if (flight_ != nullptr && trace_id != 0)
      flight_->promote(trace_id, FlightRecorder::Reason::kSlow,
                       static_cast<double>(lat_ns) / 1e3);
  }
  evaluate_locked(now_ns);
  return bad;
}

void SloPlane::wheel_record_locked(bool bad, std::uint64_t now_ns) {
  const std::uint64_t sec = now_ns / 1'000'000'000ull;
  Sec& slot = wheel_[sec % kWheel];
  if (slot.sec != sec) {
    slot.sec = sec;
    slot.total = 0;
    slot.bad = 0;
  }
  ++slot.total;
  if (bad) ++slot.bad;
}

SloPlane::Window SloPlane::window_locked(std::uint32_t window_s,
                                         std::uint64_t now_ns) const {
  Window w;
  const std::uint64_t now_sec = now_ns / 1'000'000'000ull;
  const std::uint64_t lo = now_sec >= window_s ? now_sec - window_s + 1 : 0;
  for (const Sec& s : wheel_) {
    if (s.sec == ~std::uint64_t{0} || s.sec < lo || s.sec > now_sec) continue;
    w.total += s.total;
    w.bad += s.bad;
  }
  if (w.total > 0)
    w.burn = (static_cast<double>(w.bad) / static_cast<double>(w.total)) /
             cfg_.objective.budget;
  return w;
}

SloState SloPlane::evaluate_locked(std::uint64_t now_ns) {
  const Window s = window_locked(cfg_.objective.short_window_s, now_ns);
  const Window l = window_locked(cfg_.objective.long_window_s, now_ns);
  SloState next = SloState::kOk;
  if (s.burn >= cfg_.objective.page_burn && l.burn >= cfg_.objective.page_burn)
    next = SloState::kPage;
  else if (s.burn >= cfg_.objective.warn_burn &&
           l.burn >= cfg_.objective.warn_burn)
    next = SloState::kWarn;
  if (next != state_) {
    transitions_.push_back({now_ns, state_, next});
    if (transitions_.size() > 64)
      transitions_.erase(transitions_.begin(),
                         transitions_.begin() + (transitions_.size() - 64));
    ++transitions_total_;
    state_ = next;
  }
  return state_;
}

void SloPlane::maybe_sweep_locked(std::uint64_t now_ns) {
  if (now_ns < next_sweep_ns_) return;
  next_sweep_ns_ = now_ns + cfg_.expire_ns / 16;
  sweep_locked(now_ns);
}

void SloPlane::sweep_locked(std::uint64_t now_ns) {
  if (cfg_.expire_ns == 0 || now_ns < cfg_.expire_ns) return;
  const std::uint64_t horizon = now_ns - cfg_.expire_ns;
  for (auto it = ledger_.begin(); it != ledger_.end();) {
    const Rec& r = it->second;
    const std::uint64_t born = std::max({r.depart_ns, r.send_ns, r.recv_ns});
    if (born < horizon) {
      it = ledger_.erase(it);
      ++expired_;
    } else {
      ++it;
    }
  }
}

SloPlane::BurnView SloPlane::burn(std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  BurnView v;
  v.state = state_;
  v.short_w = window_locked(cfg_.objective.short_window_s, now_ns);
  v.long_w = window_locked(cfg_.objective.long_window_s, now_ns);
  return v;
}

SloState SloPlane::evaluate(std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluate_locked(now_ns);
}

SloState SloPlane::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::vector<SloPlane::Transition> SloPlane::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

std::uint64_t SloPlane::tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracked_;
}
std::uint64_t SloPlane::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}
std::uint64_t SloPlane::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}
std::uint64_t SloPlane::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}
std::uint64_t SloPlane::expired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expired_;
}
std::uint64_t SloPlane::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}
std::uint64_t SloPlane::transitions_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_total_;
}
std::size_t SloPlane::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.size();
}

std::string SloPlane::json(std::uint64_t now_ns) {
  SloObjective obj;
  BurnView v;
  std::vector<Transition> trans;
  std::uint64_t tracked, completed, executed, violations, expired, dropped,
      flips;
  std::size_t inflight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sweep_locked(now_ns);
    evaluate_locked(now_ns);
    obj = cfg_.objective;
    v.state = state_;
    v.short_w = window_locked(obj.short_window_s, now_ns);
    v.long_w = window_locked(obj.long_window_s, now_ns);
    trans = transitions_;
    tracked = tracked_;
    completed = completed_;
    executed = executed_;
    violations = violations_;
    expired = expired_;
    dropped = dropped_;
    flips = transitions_total_;
    inflight = ledger_.size();
  }
  std::string out = "{\"schema\":\"dityco-slo-v1\",";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"now_ns\":%llu,\"objective\":{\"threshold_us\":%.3f,"
      "\"budget\":%g,\"short_window_s\":%u,\"long_window_s\":%u,"
      "\"warn_burn\":%g,\"page_burn\":%g},",
      static_cast<unsigned long long>(now_ns),
      static_cast<double>(obj.threshold_ns) / 1e3, obj.budget,
      obj.short_window_s, obj.long_window_s, obj.warn_burn, obj.page_burn);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "\"state\":\"%s\",\"burn\":{\"short\":{\"rate\":%.3f,\"bad\":%llu,"
      "\"total\":%llu},\"long\":{\"rate\":%.3f,\"bad\":%llu,"
      "\"total\":%llu}},",
      slo_state_name(v.state), v.short_w.burn,
      static_cast<unsigned long long>(v.short_w.bad),
      static_cast<unsigned long long>(v.short_w.total), v.long_w.burn,
      static_cast<unsigned long long>(v.long_w.bad),
      static_cast<unsigned long long>(v.long_w.total));
  out += buf;
  out += "\"transitions\":[";
  for (std::size_t i = 0; i < trans.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"ts_ns\":%llu,\"from\":\"%s\",\"to\":\"%s\"}",
                  i ? "," : "",
                  static_cast<unsigned long long>(trans[i].ts_ns),
                  slo_state_name(trans[i].from), slo_state_name(trans[i].to));
    out += buf;
  }
  out += "],";
  std::snprintf(
      buf, sizeof buf,
      "\"requests\":{\"tracked\":%llu,\"completed\":%llu,\"executed\":%llu,"
      "\"violations\":%llu,\"expired\":%llu,\"dropped\":%llu,"
      "\"inflight\":%zu,\"state_transitions\":%llu},",
      static_cast<unsigned long long>(tracked),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(executed),
      static_cast<unsigned long long>(violations),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(dropped), inflight,
      static_cast<unsigned long long>(flips));
  out += buf;
  out += "\"e2e\":{";
  for (std::size_t i = 0; i < kOps; ++i) {
    if (i) out += ",";
    out += "\"";
    out += op_name(static_cast<Op>(i));
    out += "\":";
    out += latency_json(e2e_[i].snapshot());
  }
  out += "},\"stages\":{";
  for (std::size_t i = 0; i < kStages; ++i) {
    if (i) out += ",";
    out += "\"";
    out += stage_name(static_cast<Stage>(i));
    out += "\":";
    out += latency_json(stage_[i].snapshot());
  }
  out += "}}";
  return out;
}

}  // namespace dityco::obs
