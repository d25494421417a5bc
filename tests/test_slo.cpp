// Workload SLO plane (obs/slo.hpp) and the log-linear obs::Histogram
// under it: quantile accuracy against an exact sorted reference,
// snapshot merge associativity, ledger stage ordering under concurrent
// producers (the TSan job runs this), the multi-window burn-rate state
// machine on a fake clock, and the flight policy the ledger applies.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight.hpp"
#include "obs/slo.hpp"

using dityco::obs::FlightRecorder;
using dityco::obs::Histogram;
using dityco::obs::SloPlane;
using dityco::obs::SloState;

namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;

/// Deterministic 64-bit generator (splitmix64), so the reference set is
/// reproducible without <random> seeding questions.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

TEST(Histogram, BucketGeometryRoundTrips) {
  std::uint64_t state = 7;
  for (int i = 0; i < 20000; ++i) {
    // Spread exponents across the whole range, sub-ns to ~18s.
    const std::uint64_t v = mix(state) >> (mix(state) % 30);
    const std::size_t idx = Histogram::index_of(v);
    ASSERT_LT(idx, Histogram::kBuckets);
    const std::uint64_t lo = Histogram::bucket_low(idx);
    const std::uint64_t w = Histogram::bucket_width(idx);
    EXPECT_LE(lo, v) << "value " << v << " below its bucket";
    // Compare via the offset: lo + w overflows for the top e=63 bucket.
    EXPECT_LT(v - lo, w) << "value " << v << " beyond its bucket";
  }
  // Buckets are ordered: low values index before high values.
  EXPECT_LT(Histogram::index_of(100), Histogram::index_of(10'000));
  EXPECT_LT(Histogram::index_of(1'000'000),
            Histogram::index_of(5'000'000'000ull));
}

TEST(Histogram, QuantilesTrackSortedReference) {
  // A bimodal latency population: a fast mode around 50us and a slow
  // tail around 20ms, the shape /slo exists to expose.
  Histogram h;
  std::vector<std::uint64_t> ref;
  std::uint64_t state = 42;
  for (int i = 0; i < 50000; ++i) {
    std::uint64_t ns = 30'000 + mix(state) % 40'000;   // 30..70us
    if (i % 100 >= 97) ns = 10'000'000 + mix(state) % 20'000'000;
    h.record(ns);
    ref.push_back(ns);
  }
  std::sort(ref.begin(), ref.end());
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.count, ref.size());
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(ref.size()));
    const double exact =
        static_cast<double>(ref[std::min(idx, ref.size() - 1)]);
    const double est = static_cast<double>(s.quantile(q));
    // Log-linear with 32 sub-buckets bounds relative error by one
    // sub-bucket width (2^-5 ~= 3.1%); allow 2x for the rank landing on
    // a bucket edge.
    EXPECT_NEAR(est, exact, exact * 0.0625)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_EQ(s.max, ref.back());
  EXPECT_EQ(s.min, ref.front());
  EXPECT_EQ(s.quantile(1.0), ref.back()) << "p100 must be exact";
}

TEST(Histogram, SnapshotMergeIsAssociative) {
  Histogram a, b, c, all;
  std::uint64_t state = 9;
  const auto feed = [&](Histogram& h, unsigned shift, int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = (mix(state) % 1'000'000) << shift;
      h.record(v);
      all.record(v);
    }
  };
  feed(a, 0, 1000);   // us range
  feed(b, 5, 700);    // tens of ms
  feed(c, 10, 300);   // tens of s
  const auto sa = a.snapshot(), sb = b.snapshot(), sc = c.snapshot();

  Histogram::Snapshot left = sa;  // (a + b) + c
  left.merge(sb).merge(sc);
  Histogram::Snapshot bc = sb;    // a + (b + c)
  bc.merge(sc);
  Histogram::Snapshot right = sa;
  right.merge(bc);

  EXPECT_EQ(left.counts, right.counts);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum, right.sum);
  EXPECT_EQ(left.max, right.max);
  EXPECT_EQ(left.min, right.min);

  // Merging per-node snapshots equals one histogram over all samples —
  // the property the tycotop fleet view depends on.
  const Histogram::Snapshot whole = all.snapshot();
  EXPECT_EQ(left.counts, whole.counts);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_EQ(left.sum, whole.sum);
  for (const double q : {0.5, 0.99})
    EXPECT_EQ(left.quantile(q), whole.quantile(q));
}

TEST(SloPlane, StageDecompositionOfOneRequest) {
  SloPlane p;
  // Client-side lifecycle: depart 100, framed 150, reply frame 900,
  // handled 1000 (all us, on a fake clock).
  p.on_depart(7, SloPlane::Op::kMsg, 100'000);
  p.on_tcp_send(7, 150'000);
  p.on_tcp_recv(7, 900'000);
  EXPECT_FALSE(p.on_complete(7, 1'000'000));
  EXPECT_EQ(p.completed(), 1u);
  EXPECT_EQ(p.inflight(), 0u);
  const auto enq = p.stage_snapshot(SloPlane::Stage::kEnqueue);
  const auto rem = p.stage_snapshot(SloPlane::Stage::kRemote);
  const auto rep = p.stage_snapshot(SloPlane::Stage::kReply);
  ASSERT_EQ(enq.count, 1u);
  ASSERT_EQ(rem.count, 1u);
  ASSERT_EQ(rep.count, 1u);
  EXPECT_EQ(enq.max, 50'000u);   // 150 - 100
  EXPECT_EQ(rem.max, 750'000u);  // 900 - 150
  EXPECT_EQ(rep.max, 100'000u);  // 1000 - 900
  const auto e2e = p.e2e_snapshot(SloPlane::Op::kMsg);
  ASSERT_EQ(e2e.count, 1u);
  EXPECT_EQ(e2e.max, 900'000u);  // 1000 - 100
}

TEST(SloPlane, ServerSideRecordsCloseAsExecuteOnly) {
  SloPlane p;
  // A frame arrives with no local departure: the server-side view.
  p.on_tcp_recv(11, 500'000);
  EXPECT_FALSE(p.on_served(11, 600'000));
  EXPECT_EQ(p.executed(), 1u);
  EXPECT_EQ(p.stage_snapshot(SloPlane::Stage::kExecute).count, 1u);
  EXPECT_EQ(p.stage_snapshot(SloPlane::Stage::kExecute).max, 100'000u);

  // A record WITH a local departure must survive on_served untouched —
  // in a single-process network the requester and the server share this
  // plane, and the serve must not steal the requester's completion.
  p.on_depart(12, SloPlane::Op::kFetch, 1'000'000);
  p.on_served(12, 1'200'000);
  EXPECT_EQ(p.inflight(), 1u) << "on_served closed a client record";
  EXPECT_FALSE(p.on_complete(12, 1'500'000));
  EXPECT_EQ(p.e2e_snapshot(SloPlane::Op::kFetch).count, 1u);
  EXPECT_EQ(p.e2e_snapshot(SloPlane::Op::kFetch).max, 500'000u);
}

// The TSan job leans on this: four producer threads drive disjoint
// trace-id ranges through the full stage lifecycle while two readers
// render /slo and read the burn windows.
TEST(SloPlane, LedgerSurvivesConcurrentProducersAndReaders) {
  SloPlane p;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 2000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&p, t] {
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kPer;
      for (std::uint64_t i = 0; i < kPer; ++i) {
        const std::uint64_t tid = base + i;
        const std::uint64_t t0 = tid * 10'000;
        p.on_depart(tid, SloPlane::Op::kMsg, t0);
        p.on_tcp_send(tid, t0 + 1'000);
        p.on_tcp_recv(tid, t0 + 5'000);
        p.on_complete(tid, t0 + 6'000);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    ts.emplace_back([&p] {
      for (int i = 0; i < 50; ++i) {
        const std::string doc = p.json(1'000'000'000ull);
        EXPECT_NE(doc.find("\"schema\""), std::string::npos);
        (void)p.burn(1'000'000'000ull);
        (void)p.e2e_snapshot(SloPlane::Op::kMsg);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(p.completed(), kThreads * kPer);
  EXPECT_EQ(p.inflight(), 0u);
  EXPECT_EQ(p.e2e_snapshot(SloPlane::Op::kMsg).count, kThreads * kPer);
  for (const auto stage : {SloPlane::Stage::kEnqueue, SloPlane::Stage::kRemote,
                           SloPlane::Stage::kReply})
    EXPECT_EQ(p.stage_snapshot(stage).count, kThreads * kPer);
}

TEST(SloPlane, BurnRateTransitionsOnFakeClock) {
  SloPlane p;
  SloPlane::Config cfg;
  cfg.objective.threshold_ns = 1'000'000;  // 1ms
  cfg.objective.budget = 0.1;
  cfg.objective.short_window_s = 5;
  cfg.objective.long_window_s = 10;
  cfg.objective.warn_burn = 1.0;   // bad fraction >= 0.1 in both windows
  cfg.objective.page_burn = 2.0;   // bad fraction >= 0.2 in both windows
  p.configure(cfg);

  // Seconds 1..5: healthy traffic, 10 good requests per second.
  std::uint64_t sec = 1;
  for (; sec <= 5; ++sec)
    for (int i = 0; i < 10; ++i)
      p.record_value(SloPlane::Op::kMsg, 100'000, sec * kSec + i);
  EXPECT_EQ(p.state(), SloState::kOk);
  EXPECT_EQ(p.violations(), 0u);

  // Seconds 6..10: half the requests blow the threshold. Short window
  // burn = (25/50)/0.1 = 5; long window = (25/100)/0.1 = 2.5 — both
  // past page_burn, so the state machine must reach kPage.
  for (; sec <= 10; ++sec)
    for (int i = 0; i < 10; ++i)
      p.record_value(SloPlane::Op::kMsg,
                     i < 5 ? 50'000'000 : 100'000, sec * kSec + i);
  EXPECT_EQ(p.state(), SloState::kPage);
  EXPECT_EQ(p.violations(), 25u);
  const auto burned = p.burn(10 * kSec + 100);
  EXPECT_GE(burned.short_w.burn, cfg.objective.page_burn);
  EXPECT_GE(burned.long_w.burn, cfg.objective.page_burn);

  // A later quiet evaluation decays the alert: both windows have moved
  // past the bad seconds, burn reads zero, state returns to ok.
  EXPECT_EQ(p.evaluate(40 * kSec), SloState::kOk);
  const auto ts = p.transitions();
  ASSERT_GE(ts.size(), 2u);
  EXPECT_EQ(ts.front().from, SloState::kOk);
  EXPECT_EQ(ts.back().to, SloState::kOk);
  EXPECT_EQ(p.transitions_total(), ts.size());
  bool paged = false;
  for (const auto& t : ts) paged |= t.to == SloState::kPage;
  EXPECT_TRUE(paged) << "no transition ever reached page";
}

TEST(SloPlane, WarnStateNeedsBothWindows) {
  SloPlane p;
  SloPlane::Config cfg;
  cfg.objective.threshold_ns = 1'000'000;
  cfg.objective.budget = 0.1;
  cfg.objective.short_window_s = 2;
  cfg.objective.long_window_s = 10;
  p.configure(cfg);
  // One bad burst inside the short window only: short burns (1.0/0.1 =
  // 10) but the long window holds 8 earlier good seconds, so its burn
  // stays under warn_burn and the state must hold at ok. (Second 9 is
  // left empty so the 2s short window at t=10 sees only the burst.)
  for (std::uint64_t s = 1; s <= 8; ++s)
    for (int i = 0; i < 20; ++i)
      p.record_value(SloPlane::Op::kMsg, 100'000, s * kSec + i);
  for (int i = 0; i < 2; ++i)
    p.record_value(SloPlane::Op::kMsg, 50'000'000, 10 * kSec + i);
  const auto v = p.burn(10 * kSec + 10);
  EXPECT_GE(v.short_w.burn, cfg.objective.warn_burn);
  EXPECT_LT(v.long_w.burn, cfg.objective.warn_burn);
  EXPECT_EQ(p.state(), SloState::kOk)
      << "short-window noise alone must not alert";
}

TEST(SloPlane, ViolationsPromoteIntoFlightRecorder) {
  FlightRecorder flight;
  dityco::obs::FlightPolicy fp;
  fp.slow_us = 1e12;  // flight's own slow rule never fires; only promote
  flight.configure(fp);
  SloPlane p;
  SloPlane::Config cfg;
  cfg.objective.threshold_ns = 1'000'000;
  p.configure(cfg);
  p.set_flight(&flight);
  p.on_depart(777, SloPlane::Op::kMsg, kSec);
  EXPECT_TRUE(p.on_complete(777, kSec + 50'000'000));
  EXPECT_EQ(p.violations(), 1u);
  EXPECT_EQ(flight.promoted_count(FlightRecorder::Reason::kSlow), 1u);
  const auto entries = flight.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.front().trace_id, 777u);
  EXPECT_EQ(entries.front().reason, FlightRecorder::Reason::kSlow);
  EXPECT_EQ(flight.duplicates(), 0u);
  // tycoload's direct path is judged and promoted the same way.
  EXPECT_TRUE(p.record_value(SloPlane::Op::kMsg, 50'000'000, kSec, 778));
  EXPECT_EQ(flight.promoted_count(FlightRecorder::Reason::kSlow), 2u);
}

// The flight policy rides on the ledger's e2e histograms: "keep the
// slowest 1%" over latencies uniform on 1..1000us keeps about 1%, where
// a threshold snapped to a coarse bucket bound (1024us) would keep none.
TEST(SloPlane, FlightPercentileKeepsOnePercentOfAUniformTail) {
  FlightRecorder flight;
  dityco::obs::FlightPolicy fp;
  fp.slow_pctl = 0.99;
  fp.max_traces = 16;
  flight.configure(fp);
  SloPlane p;  // no objective: the ledger of a flight-only network
  p.set_flight(&flight);
  constexpr std::uint64_t kN = 10'000;
  std::uint64_t state = 3;
  for (std::uint64_t id = 1; id <= kN; ++id) {
    const std::uint64_t lat_ns = (1 + mix(state) % 1000) * 1'000;
    p.on_depart(id, SloPlane::Op::kFetch, id * 10'000'000);
    p.on_complete(id, id * 10'000'000 + lat_ns);
  }
  const double kept =
      static_cast<double>(
          flight.promoted_count(FlightRecorder::Reason::kSlow)) /
      static_cast<double>(kN);
  // 0.3% is three standard deviations of the binomial noise in 10 000
  // draws at p = 0.01.
  EXPECT_NEAR(kept, 0.01, 0.003);
  EXPECT_EQ(p.completed(), kN);
  EXPECT_EQ(p.violations(), 0u) << "no objective was configured";
}

// In a fleet a SHIPM completes in another process, so its departure
// never completes here. The ledger expires such records, and a slow
// operation after a flood of them is still timed and promoted.
TEST(SloPlane, FlightStillPromotesAfterTheLedgerFillsAndExpires) {
  FlightRecorder flight;
  dityco::obs::FlightPolicy fp;
  fp.slow_us = 10'000;  // 10ms
  flight.configure(fp);
  SloPlane p;
  p.set_flight(&flight);
  const SloPlane::Config cfg = p.config();
  ASSERT_FALSE(p.has_objective());
  const std::uint64_t flood = cfg.max_inflight + 1000;
  for (std::uint64_t id = 1; id <= flood; ++id)
    p.on_depart(id, SloPlane::Op::kMsg, id * 1'000);
  EXPECT_EQ(p.inflight(), cfg.max_inflight);
  EXPECT_EQ(p.dropped(), 1000u);

  const std::uint64_t later = flood * 1'000 + cfg.expire_ns + kSec;
  const std::uint64_t fetch = flood + 1;
  p.on_depart(fetch, SloPlane::Op::kFetch, later);
  EXPECT_EQ(p.expired(), cfg.max_inflight);
  p.on_complete(fetch, later + 50'000'000);  // 50ms
  EXPECT_EQ(flight.promoted_count(FlightRecorder::Reason::kSlow), 1u);
  const auto entries = flight.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.front().trace_id, fetch);
  EXPECT_DOUBLE_EQ(entries.front().latency_us, 50'000.0);
}
