// Observability layer: metrics registry semantics, trace-ring behaviour,
// trace-id propagation through the wire format, and end-to-end causal
// tracing on a 2-node simulated cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "calculus/reducer.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/export.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace dityco {
namespace {

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, CounterSemantics) {
  obs::Counter c;
  ++c;
  c += 4;
  c.inc();
  EXPECT_EQ(c, 6u);
  obs::Counter copy = c;  // a copy snapshots the value
  ++c;
  EXPECT_EQ(copy, 6u);
  EXPECT_EQ(c, 7u);
}

TEST(Metrics, GaugeSemantics) {
  obs::Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBuckets) {
  obs::Histogram h;
  for (const std::uint64_t v : {0ull, 5ull, 10ull, 50ull, 500ull, 10ull})
    h.record(v);
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), obs::Histogram::kBuckets);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[5], 1u);
  EXPECT_EQ(s.counts[10], 2u) << "values below 64 have exact buckets";
  EXPECT_EQ(s.counts[obs::Histogram::index_of(500)], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 575u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 500u);
  EXPECT_TRUE(obs::Histogram().snapshot().empty());
}

TEST(Metrics, RegistryCollected) {
  obs::Registry reg;
  std::uint64_t live = 42;
  auto token = reg.add_collector([&](obs::Collector& c) {
    c.counter("collected_total", live);
    c.gauge("collected_depth", 3);
  });
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("collected_total"), 42u);
  EXPECT_EQ(snap.gauges.at("collected_depth"), 3);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("collected_total 42"), std::string::npos);
  const std::string json = reg.expose_json();
  EXPECT_NE(json.find("\"collected_total\":42"), std::string::npos);

  // RAII: dropping the token removes the collector.
  token.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("collected_total"), 0u);
}

TEST(Metrics, SameNameCollectorsSum) {
  obs::Registry reg;
  auto t1 = reg.add_collector(
      [](obs::Collector& c) { c.counter("shared_total", 2); });
  auto t2 = reg.add_collector(
      [](obs::Collector& c) { c.counter("shared_total", 5); });
  EXPECT_EQ(reg.snapshot().counters.at("shared_total"), 7u);
}

TEST(Metrics, SoloCounterSingleWriterSemantics) {
  obs::SoloCounter c;
  ++c;
  c += 4;
  c.inc();
  EXPECT_EQ(c, 6u);
  obs::SoloCounter copy = c;
  ++c;
  EXPECT_EQ(copy, 6u);
  EXPECT_EQ(c, 7u);
}

TEST(Metrics, LiveOnlySkipsNonLiveSafeCollectors) {
  obs::Registry reg;
  auto live = reg.add_collector(
      [](obs::Collector& c) { c.counter("live_total", 1); });
  auto rest = reg.add_collector(
      [](obs::Collector& c) { c.counter("rest_total", 1); },
      /*live_safe=*/false);
  auto snap = reg.snapshot(/*live_only=*/true);
  EXPECT_EQ(snap.counters.count("live_total"), 1u);
  EXPECT_EQ(snap.counters.count("rest_total"), 0u)
      << "non-live-safe collectors must not run during a live scrape";
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("rest_total"), 1u);
  EXPECT_EQ(reg.expose_text(/*live_only=*/true).find("rest_total"),
            std::string::npos);
  EXPECT_NE(reg.expose_text().find("rest_total"), std::string::npos);
}

TEST(Metrics, HistogramExposition) {
  obs::Registry reg;
  obs::Histogram h;
  h.record(3);
  auto token = reg.add_collector(
      [&](obs::Collector& c) { c.histogram("lat_us", h.snapshot()); });
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"3\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 3"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
}

/// Every exposed cumulative count is exact: two components' same-named
/// histograms (one per site, say) over random values spanning 0..2^40
/// expose, in text and in JSON, exactly what a brute-force count of
/// their union gives.
TEST(Metrics, HistogramExpositionIsExactAndMerges) {
  obs::Histogram site_a, site_b;
  std::vector<std::uint64_t> all;
  std::uint64_t state = 0x5eed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 20000; ++i) {
    // Uniform exponent, then uniform bits below it.
    const unsigned e = static_cast<unsigned>(next() % 41);
    std::uint64_t v = e == 0 ? 0 : next() & ((std::uint64_t{1} << e) - 1);
    if (i % 64 == 0)  // on an exposed bound 2^k - 1, or the edge 2^k
      v = (std::uint64_t{1} << (e % 40 + 1)) - (i % 128 == 0 ? 0 : 1);
    (next() & 1 ? site_a : site_b).record(v);
    all.push_back(v);
  }
  obs::Registry reg;
  auto ta = reg.add_collector([&](obs::Collector& c) {
    c.histogram("x_bytes", site_a.snapshot());
  });
  auto tb = reg.add_collector([&](obs::Collector& c) {
    c.histogram("x_bytes", site_b.snapshot());
  });
  const auto count_le = [&all](std::uint64_t le) {
    return static_cast<std::uint64_t>(std::count_if(
        all.begin(), all.end(), [le](std::uint64_t v) { return v <= le; }));
  };
  std::uint64_t sum = 0;
  for (const std::uint64_t v : all) sum += v;

  const std::string text = reg.expose_text();
  std::vector<std::uint64_t> text_cum;
  const std::string key = "x_bytes_bucket{le=\"";
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos)) {
    pos += key.size();
    const std::string le = text.substr(pos, text.find('"', pos) - pos);
    const std::uint64_t got =
        std::stoull(text.substr(text.find("} ", pos) + 2));
    text_cum.push_back(got);
    if (le == "+Inf") {
      EXPECT_EQ(got, all.size());
    } else {
      EXPECT_EQ(got, count_le(std::stoull(le))) << "le=" << le;
    }
  }
  ASSERT_EQ(text_cum.size(), obs::Histogram::kExposedBounds + 1u);
  EXPECT_NE(text.find("x_bytes_sum " + std::to_string(sum) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("x_bytes_count " + std::to_string(all.size()) + "\n"),
            std::string::npos);

  // /metrics.json: the same bounds, per-interval counts that accumulate
  // to the text's cumulative ones, and the same sum and count.
  const std::string json = reg.expose_json();
  const auto array_after = [&json](const std::string& key) {
    std::vector<std::uint64_t> out;
    std::size_t p = json.find("\"" + key + "\":[");
    EXPECT_NE(p, std::string::npos) << key;
    p = json.find('[', p) + 1;
    const std::size_t end = json.find(']', p);
    while (p < end) {
      std::size_t used = 0;
      out.push_back(std::stoull(json.substr(p), &used));
      p += used + 1;
    }
    return out;
  };
  const auto bounds = array_after("bounds");
  const auto counts = array_after("counts");
  ASSERT_EQ(bounds.size(), obs::Histogram::kExposedBounds);
  ASSERT_EQ(counts.size(), text_cum.size());
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    EXPECT_EQ(cum, text_cum[i]) << "bucket " << i;
    if (i < bounds.size()) {
      EXPECT_EQ(cum, count_le(bounds[i])) << "le=" << bounds[i];
    }
  }
  EXPECT_NE(json.find("\"sum\":" + std::to_string(sum) + ","),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":" + std::to_string(all.size()) + "}"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(TraceRing, DisabledRecordIsNoop) {
  obs::TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.record(obs::EventType::kComm, 1);  // must not crash
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(TraceRing, WrapsKeepingNewest) {
  obs::TraceRing ring;
  ring.enable(8, /*node=*/1, /*site=*/2);
  for (std::uint64_t i = 0; i < 20; ++i)
    ring.record(obs::EventType::kComm, /*trace_id=*/0, /*arg=*/i);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 12u + i) << "oldest-first, newest retained";
    EXPECT_EQ(events[i].node, 1u);
    EXPECT_EQ(events[i].site, 2u);
  }
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  obs::TraceRing ring;
  ring.enable(5, 0, 0);
  for (int i = 0; i < 8; ++i) ring.record(obs::EventType::kInst, 0);
  EXPECT_EQ(ring.snapshot().size(), 8u) << "5 rounds up to 8 slots";
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, EventNamesInvert) {
  for (auto t = static_cast<int>(obs::EventType::kComm);
       t <= static_cast<int>(obs::EventType::kTcpPeerDead); ++t) {
    const auto type = static_cast<obs::EventType>(t);
    if (type == obs::EventType::kSliceEnd) continue;  // shares run-slice
    EXPECT_EQ(obs::event_type_named(obs::event_name(type)), type)
        << obs::event_name(type);
  }
  EXPECT_FALSE(obs::event_type_named("?").has_value());
  EXPECT_FALSE(obs::event_type_named("").has_value());
}

TEST(TraceRing, FreshTraceIdsAreUniqueAndNonZero) {
  const std::uint64_t a = obs::next_trace_id();
  const std::uint64_t b = obs::next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

TEST(Sampling, DeterministicAndRoughlyOneInN) {
  int kept = 0;
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    const bool a = obs::trace_id_sampled(id, 8, 42);
    EXPECT_EQ(a, obs::trace_id_sampled(id, 8, 42))
        << "same (id, every, seed) must always agree";
    kept += a ? 1 : 0;
  }
  // 1-in-8 of 4096 ids is 512 in expectation; allow a generous band.
  EXPECT_GT(kept, 256);
  EXPECT_LT(kept, 1024);
  // every <= 1 keeps everything.
  EXPECT_TRUE(obs::trace_id_sampled(7, 1, 0));
  EXPECT_TRUE(obs::trace_id_sampled(7, 0, 9));
  // The seed reshuffles the kept set.
  bool differs = false;
  for (std::uint64_t id = 1; id <= 256 && !differs; ++id)
    differs = obs::trace_id_sampled(id, 8, 1) !=
              obs::trace_id_sampled(id, 8, 2);
  EXPECT_TRUE(differs);
}

TEST(Sampling, RingCountsSampledAndUnsampledDecisions) {
  obs::TraceRing ring;
  ring.enable(16, 0, 0);
  ring.set_sampling(4, 7);
  std::uint64_t kept = 0;
  for (int i = 0; i < 200; ++i)
    if (ring.sample(obs::next_trace_id())) ++kept;
  EXPECT_EQ(ring.sampled(), kept);
  EXPECT_EQ(ring.unsampled(), 200u - kept);
  EXPECT_GT(ring.unsampled(), 0u) << "1-in-4 must skip some of 200 ids";
  EXPECT_GT(ring.sampled(), 0u);
}

// ---------------------------------------------------------------------
// Wire format: the header with and without a trace id
// ---------------------------------------------------------------------

TEST(WireTrace, HeaderRoundTripWithTraceId) {
  Writer w;
  net::write_header(w, net::MsgType::kShipObj, 7, 0xdeadbeefull);
  w.u64(123);
  const net::Packet p = net::Packet::parse(0, 1, w.take());
  // The parsed header sees through the trace flag.
  EXPECT_EQ(p.hdr.type, net::MsgType::kShipObj);
  EXPECT_EQ(p.hdr.dst_site, 7u);
  EXPECT_EQ(p.hdr.trace_id, 0xdeadbeefull);
  EXPECT_EQ(p.hdr.size(), 13u);
  Reader r(p.payload());
  EXPECT_EQ(r.u64(), 123u) << "payload follows the header";
  EXPECT_TRUE(r.done());
}

TEST(WireTrace, UntracedHeaderIsByteIdenticalToV1) {
  // The one layout, written by hand: [type u8][dst u32], and with a trace
  // id [type|kTraceFlag|kSampledFlag u8][dst u32][trace_id u64].
  Writer untraced;
  net::write_header(untraced, net::MsgType::kShipMsg, 3, /*trace_id=*/0);
  Writer want;
  want.u8(static_cast<std::uint8_t>(net::MsgType::kShipMsg));
  want.u32(3);
  EXPECT_EQ(untraced.take(), want.take());

  Writer traced;
  net::write_header(traced, net::MsgType::kShipMsg, 3, 0xabcdull);
  want.u8(static_cast<std::uint8_t>(net::MsgType::kShipMsg) |
          net::kTraceFlag | net::kSampledFlag);
  want.u32(3);
  want.u64(0xabcdull);
  EXPECT_EQ(traced.take(), want.take());
}

TEST(WireTrace, OldFormatPacketStillDecodes) {
  // An untraced frame written by hand (no flag, no trace id).
  Writer w;
  w.u8(static_cast<std::uint8_t>(net::MsgType::kFetchReq));
  w.u32(9);
  const net::Packet p = net::Packet::parse(0, 1, w.take());
  EXPECT_EQ(p.hdr.type, net::MsgType::kFetchReq);
  EXPECT_EQ(p.hdr.dst_site, 9u);
  EXPECT_EQ(p.hdr.trace_id, 0u);
  EXPECT_TRUE(p.payload().empty());
}

TEST(WireTrace, SampledBitRoundTrip) {
  // Sampled traced frame (the default).
  Writer ws;
  net::write_header(ws, net::MsgType::kShipMsg, 4, 0xabcdull,
                    /*sampled=*/true);
  const net::Packet sp = net::Packet::parse(0, 1, ws.take());
  EXPECT_EQ(sp.bytes[0], 0x01 | net::kTraceFlag | net::kSampledFlag);
  EXPECT_TRUE(sp.hdr.sampled);
  EXPECT_EQ(sp.hdr.trace_id, 0xabcdull);

  // Unsampled traced frame: the id is still carried (causality survives)
  // but the bit tells every hop to skip recording.
  Writer wu;
  net::write_header(wu, net::MsgType::kShipMsg, 4, 0xabcdull,
                    /*sampled=*/false);
  const net::Packet up = net::Packet::parse(0, 1, wu.take());
  EXPECT_EQ(up.bytes[0], 0x01 | net::kTraceFlag);
  EXPECT_FALSE(up.hdr.sampled);
  EXPECT_EQ(up.hdr.type, net::MsgType::kShipMsg)
      << "the parsed type sees through both flag bits";
  EXPECT_EQ(up.hdr.trace_id, 0xabcdull);
  EXPECT_EQ(up.hdr.dst_site, 4u);

  // Untraced frames carry no decision: the sampled argument is not
  // written, and they decode as sampled so nothing suppresses recording.
  Writer wn;
  net::write_header(wn, net::MsgType::kShipMsg, 4, /*trace_id=*/0,
                    /*sampled=*/false);
  const net::Packet np = net::Packet::parse(0, 1, wn.take());
  EXPECT_EQ(np.bytes, (std::vector<std::uint8_t>{0x01, 4, 0, 0, 0}));
  EXPECT_TRUE(np.hdr.sampled);
}

TEST(WireTrace, UnknownTypeRejected) {
  Writer w;
  w.u8(0x7f);  // not a MsgType even with the flag masked off
  w.u32(0);
  EXPECT_THROW(net::Packet::parse(0, 1, w.take()), DecodeError);
}

// ---------------------------------------------------------------------
// End-to-end: causal tracing across a 2-node simulated cluster
// ---------------------------------------------------------------------

core::Network::Config sim_cfg() {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSim;
  return cfg;
}

core::Network two_node_net(core::Network::Config cfg) {
  core::Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  net.add_node();
  net.add_site(1, "client");
  return net;
}

/// All events of `type` across every collected thread trace.
std::vector<obs::TraceEvent> events_of(
    const std::vector<obs::ThreadTrace>& traces, obs::EventType type) {
  std::vector<obs::TraceEvent> out;
  for (const auto& t : traces)
    for (const auto& e : t.events)
      if (e.type == type) out.push_back(e);
  return out;
}

/// Assert every departure of `out_t` has an arrival of `in_t` with the
/// same non-zero trace id on a different site.
void expect_matched(const std::vector<obs::ThreadTrace>& traces,
                    obs::EventType out_t, obs::EventType in_t) {
  const auto outs = events_of(traces, out_t);
  const auto ins = events_of(traces, in_t);
  ASSERT_FALSE(outs.empty()) << obs::event_name(out_t);
  for (const auto& o : outs) {
    EXPECT_NE(o.trace_id, 0u);
    bool matched = false;
    for (const auto& i : ins)
      if (i.trace_id == o.trace_id &&
          (i.node != o.node || i.site != o.site))
        matched = true;
    EXPECT_TRUE(matched) << obs::event_name(out_t) << " trace id "
                         << o.trace_id << " has no matching "
                         << obs::event_name(in_t);
  }
}

TEST(EndToEnd, ShipMsgDeparturesMatchArrivals) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in "
                    "def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] "
                    "in Loop[4, 0]");
  auto res = net.run();
  ASSERT_TRUE(res.quiescent) << "run must quiesce";

  const auto traces = net.collect_traces();
  expect_matched(traces, obs::EventType::kShipMsgOut,
                 obs::EventType::kShipMsgIn);
  // The import's NS lookup and its reply share one causal id.
  const auto lookups = events_of(traces, obs::EventType::kNsLookup);
  const auto replies = events_of(traces, obs::EventType::kNsReply);
  ASSERT_FALSE(lookups.empty());
  bool closed = false;
  for (const auto& l : lookups)
    for (const auto& r : replies)
      if (l.trace_id != 0 && l.trace_id == r.trace_id) closed = true;
  EXPECT_TRUE(closed) << "NS lookup -> reply chain must share a trace id";
}

TEST(EndToEnd, ShipObjAndFetchChains) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  // The applet server of section 4, fetch style: the client instantiates
  // a remote class -> FETCH req/served/reply; the reply ships code.
  net.submit_source("server",
                    "export def Applet(out) = out![1 + 2] in 0");
  net.submit_source("client",
                    "import Applet from server in "
                    "new p (Applet[p] | p?(v) = print[v])");
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);

  const auto traces = net.collect_traces();
  const auto reqs = events_of(traces, obs::EventType::kFetchReq);
  const auto served = events_of(traces, obs::EventType::kFetchServed);
  const auto linked = events_of(traces, obs::EventType::kFetchReply);
  ASSERT_EQ(reqs.size(), 1u);
  ASSERT_EQ(served.size(), 1u);
  ASSERT_EQ(linked.size(), 1u);
  EXPECT_NE(reqs[0].trace_id, 0u);
  EXPECT_EQ(reqs[0].trace_id, served[0].trace_id)
      << "the FETCH reply reuses the request's causal id";
  EXPECT_EQ(reqs[0].trace_id, linked[0].trace_id);
}

TEST(EndToEnd, ShipObjMatched) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  // Code-shipping style: the server ships an object closure per request.
  net.submit_source("server",
                    "def Srv(self) = self?{ get(p) = ((p?(r) = r![7]) | "
                    "Srv[self]) } in export new srv in Srv[srv]");
  net.submit_source("client",
                    "import srv from server in "
                    "new p (srv!get[p] | let v = p![] in print[v])");
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);
  expect_matched(net.collect_traces(), obs::EventType::kShipObjOut,
                 obs::EventType::kShipObjIn);
}

TEST(EndToEnd, SamplingGatesMobilityEventsButKeepsLocalOnes) {
  auto net = two_node_net(sim_cfg());
  // 1-in-2^20: with a few dozen allocated ids, essentially everything is
  // skipped (each id samples with probability ~1e-6).
  net.enable_tracing(1 << 12, /*sample_every=*/1 << 20, /*sample_seed=*/7);
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in "
                    "def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] "
                    "in Loop[20, 0]");
  ASSERT_TRUE(net.run().quiescent);

  const auto traces = net.collect_traces();
  // Local reductions carry trace id 0 and are never sampled away.
  EXPECT_FALSE(events_of(traces, obs::EventType::kComm).empty());

  // Nearly every SHIPM skipped recording, so the ring holds fewer
  // departures than the mobility counter says were shipped...
  const auto outs = events_of(traces, obs::EventType::kShipMsgOut);
  const std::uint64_t shipped =
      net.find_site("client")->mobility().msgs_shipped.value();
  EXPECT_GE(shipped, 20u);
  EXPECT_LT(static_cast<std::uint64_t>(outs.size()), shipped);

  // ...and the decision counters account for every allocated id.
  const auto snap = net.metrics().snapshot();
  EXPECT_GT(snap.counters.at("site_trace_unsampled{site=\"client\"}"), 0u);
  const std::uint64_t decided =
      snap.counters.at("site_trace_sampled{site=\"client\"}") +
      snap.counters.at("site_trace_unsampled{site=\"client\"}");
  EXPECT_GE(decided, shipped) << "every departure allocates and decides";

  // Any departure that *was* recorded must still match an arrival: the
  // decision travels on the wire, so hops agree.
  const auto ins = events_of(traces, obs::EventType::kShipMsgIn);
  for (const auto& o : outs) {
    bool matched = false;
    for (const auto& i : ins)
      if (i.trace_id == o.trace_id && i.site != o.site) matched = true;
    EXPECT_TRUE(matched);
  }
}

TEST(EndToEnd, SimTraceTimestampsAreVirtual) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in "
                    "def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] "
                    "in Loop[4, 0]");
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);
  ASSERT_GT(res.virtual_time_us, 0.0);

  // Every timestamp sits inside the simulated makespan — steady_clock
  // stamps (nanoseconds since boot) would be orders of magnitude larger.
  const auto makespan_ns =
      static_cast<std::uint64_t>(res.virtual_time_us * 1000.0) + 1;
  std::size_t seen = 0;
  for (const auto& t : net.collect_traces())
    for (const auto& e : t.events) {
      EXPECT_LE(e.ts_ns, makespan_ns)
          << obs::event_name(e.type) << " stamped past the virtual makespan";
      ++seen;
    }
  EXPECT_GT(seen, 0u);
}

TEST(EndToEnd, FetchRoundTripIsAsyncSpanInTraceJson) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  net.submit_source("server",
                    "export def Applet(out) = out![1 + 2] in 0");
  net.submit_source("client",
                    "import Applet from server in "
                    "new p (Applet[p] | p?(v) = print[v])");
  ASSERT_TRUE(net.run().quiescent);

  const std::string json = net.trace_json();
  // The FETCH request/reply pair renders as a Chrome async span keyed by
  // its trace id, so the round trip reads as one bar in Perfetto.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FETCH\""), std::string::npos);
}

TEST(EndToEnd, TraceJsonIsWellFormedChromeTrace) {
  auto net = two_node_net(sim_cfg());
  net.enable_tracing(1 << 12);
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in let v = svc![1] in print[v]");
  ASSERT_TRUE(net.run().quiescent);

  const std::string json = net.trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Cross-site flows: at least one start and one finish arrow.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Run slices appear as duration events.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(EndToEnd, MetricsRegistryAggregatesAllComponents) {
  auto net = two_node_net(sim_cfg());
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in let v = svc![5] in print[v]");
  ASSERT_TRUE(net.run().quiescent);

  const auto snap = net.metrics().snapshot();
  EXPECT_GT(snap.counters.at("vm_instructions{site=\"client\"}"), 0u);
  EXPECT_GT(snap.counters.at("vm_instructions{site=\"server\"}"), 0u);
  EXPECT_EQ(snap.counters.at("site_msgs_shipped{site=\"client\"}"),
            net.find_site("client")->mobility().msgs_shipped.value());
  EXPECT_EQ(snap.counters.at("ns_lookups{ns=\"shard0\"}"), 1u);
  EXPECT_EQ(snap.counters.at("ns_replies{ns=\"shard0\"}"), 1u);
  // Untraced run: no events, no drops.
  EXPECT_EQ(snap.counters.at("site_trace_events{site=\"client\"}"), 0u);

  const std::string text = net.metrics().expose_text();
  EXPECT_NE(text.find("site_packet_bytes_bucket{site=\"client\",le="),
            std::string::npos)
      << "histogram labels merge with the site label:\n" << text;
}

TEST(EndToEnd, ReducerRegistersCalcMetrics) {
  obs::Registry reg;
  calc::Reducer red;
  red.register_metrics(reg);
  red.add_program("main", comp::parse_program(
                              "new c (c![] | c?() = print[\"hi\"])"));
  auto res = red.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(reg.snapshot().counters.at("calc_comm_reductions"), 1u);
}

TEST(EndToEnd, ThreadedModeStatsReadableWhileRunning) {
  // The race-fix satellite: mobility counters and errors() must be safe
  // to read while the threaded driver is executing (TSan-checked in CI).
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  auto net = two_node_net(cfg);
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in "
                    "def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] "
                    "in Loop[50, 0]");

  std::atomic<bool> stop{false};
  std::uint64_t observed = 0;
  std::thread reader([&] {
    while (!stop.load()) {
      for (const char* name : {"server", "client"}) {
        const auto& mob = net.find_site(name)->mobility();
        observed += mob.msgs_shipped + mob.msgs_received;
        observed += net.find_site(name)->errors().size();
      }
    }
  });
  auto res = net.run();
  stop.store(true);
  reader.join();
  EXPECT_TRUE(res.quiescent);
  EXPECT_GE(net.find_site("client")->mobility().msgs_shipped.value(), 50u);
  (void)observed;
}

// ---------------------------------------------------------------------
// Flight recorder: tail-based trace retention
// ---------------------------------------------------------------------

TEST(Flight, PromoteHarvestsEventsFromAttachedRings) {
  obs::TraceRing a, b;
  a.enable(64, 0, 0);
  b.enable(64, 1, 0);
  a.record(obs::EventType::kFetchReq, 42, 7);
  b.record(obs::EventType::kFetchServed, 42, 7);
  b.record(obs::EventType::kShipMsgIn, 43, 1);  // unrelated id
  a.record(obs::EventType::kFetchReply, 42, 7);

  obs::FlightRecorder fr;
  fr.attach_ring(&a);
  fr.attach_ring(&a);  // idempotent
  fr.attach_ring(&b);
  ASSERT_TRUE(fr.promote(42, obs::FlightRecorder::Reason::kError));
  const auto entries = fr.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, 42u);
  EXPECT_EQ(entries[0].reason, obs::FlightRecorder::Reason::kError);
  ASSERT_EQ(entries[0].events.size(), 3u) << "both rings, only id 42";
  // Sorted by timestamp across rings.
  for (std::size_t i = 1; i < entries[0].events.size(); ++i)
    EXPECT_LE(entries[0].events[i - 1].ts_ns, entries[0].events[i].ts_ns);
  EXPECT_EQ(fr.promoted_count(obs::FlightRecorder::Reason::kError), 1u);
}

// The flight recorder keeps no ledger: the request ledger (obs/slo.hpp)
// times each operation and offers every e2e completion to its policy.
TEST(Flight, AbsoluteLatencyThresholdDecidesPromotion) {
  obs::TraceRing ring;
  ring.enable(64, 0, 0);
  obs::FlightRecorder fr;
  obs::FlightPolicy p;
  p.slow_us = 100.0;
  fr.configure(p);
  fr.attach_ring(&ring);
  obs::SloPlane ledger;
  ledger.set_flight(&fr);
  using Op = obs::SloPlane::Op;
  const auto slow = [&] {
    return fr.promoted_count(obs::FlightRecorder::Reason::kSlow);
  };

  ledger.on_depart(1, Op::kMsg, 1'000);
  ledger.on_complete(1, 50'000);
  EXPECT_EQ(slow(), 0u) << "49us < 100us: fast";
  ledger.on_depart(2, Op::kMsg, 1'000);
  ledger.on_complete(2, 201'000);
  EXPECT_EQ(slow(), 1u) << "200us >= 100us: slow";
  EXPECT_EQ(ledger.completed(), 2u);
  EXPECT_EQ(fr.promoted_count(obs::FlightRecorder::Reason::kSlow), 1u);
  const auto entries = fr.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, 2u);
  EXPECT_DOUBLE_EQ(entries[0].latency_us, 200.0);
}

TEST(Flight, PercentilePolicyKeepsTheTail) {
  obs::FlightRecorder fr;
  obs::FlightPolicy p;
  p.slow_pctl = 0.5;
  p.pctl_min_samples = 4;
  fr.configure(p);
  obs::SloPlane ledger;
  ledger.set_flight(&fr);
  using Op = obs::SloPlane::Op;
  const auto slow = [&] {
    return fr.promoted_count(obs::FlightRecorder::Reason::kSlow);
  };
  // Operations depart at t0 (0 would read as "no local departure").
  constexpr std::uint64_t t0 = 1'000;
  // Below min samples nothing fires, however slow.
  ledger.on_depart(1, Op::kFetch, t0);
  ledger.on_complete(1, t0 + 1'000'000'000);
  EXPECT_EQ(slow(), 0u);
  // Build a distribution of ~2us completions...
  for (std::uint64_t id = 2; id < 100; ++id) {
    ledger.on_depart(id, Op::kFetch, t0);
    ledger.on_complete(id, t0 + 2'000);
  }
  EXPECT_EQ(slow(), 0u) << "no completion lies above the median";
  // ...then a 1000s outlier must land beyond the median.
  ledger.on_depart(1000, Op::kFetch, t0);
  ledger.on_complete(1000, t0 + 1'000'000'000'000ull);
  EXPECT_EQ(slow(), 1u);
  // And a typical completion still must not.
  ledger.on_depart(1001, Op::kFetch, t0);
  ledger.on_complete(1001, t0 + 2'000);
  EXPECT_EQ(slow(), 1u);
}

TEST(Flight, BufferCapsDedupsAndCountsEvictions) {
  obs::FlightRecorder fr;
  obs::FlightPolicy p;
  p.max_traces = 2;
  fr.configure(p);
  using R = obs::FlightRecorder::Reason;
  EXPECT_TRUE(fr.promote(1, R::kError));
  EXPECT_FALSE(fr.promote(1, R::kError)) << "already promoted";
  EXPECT_EQ(fr.duplicates(), 1u);
  EXPECT_TRUE(fr.promote(2, R::kStarved));
  EXPECT_TRUE(fr.promote(3, R::kRelAnomaly));
  EXPECT_EQ(fr.evicted(), 1u);
  const auto entries = fr.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].trace_id, 2u) << "oldest evicted first";
  EXPECT_EQ(entries[1].trace_id, 3u);
}

/// A FETCH: the client imports and runs the server's Applet.
void submit_fetch(core::Network& net) {
  net.submit_source("server",
                    "export def Applet(out) = out![1 + 2] in 0");
  net.submit_source("client",
                    "import Applet from server in "
                    "new p (Applet[p] | p?(v) = print[v])");
}

/// The acceptance scenario: under the sim driver with 1-in-64 head
/// sampling, one artificially slow FETCH (extra virtual latency injected
/// on its reply packet) must land in /flight with EVERY hop of its trace
/// id — deterministically, whatever its sampling bit says — while a
/// fast control run promotes nothing.
core::Network fetch_net() {
  auto net = two_node_net(sim_cfg());
  submit_fetch(net);
  return net;
}

TEST(Flight, SlowFetchIsPromotedWithEveryHopDeterministically) {
  auto net = fetch_net();
  net.enable_tracing(1 << 12, /*sample_every=*/64, /*sample_seed=*/7);
  obs::FlightPolicy p;
  p.slow_us = 10'000.0;  // 10ms: far above any unperturbed sim latency
  net.enable_flight(p);
  // +50ms of virtual wire time on the FETCH reply only.
  auto& sim = dynamic_cast<net::SimTransport&>(net.transport());
  sim.set_extra_cost([](const net::Packet& pkt) {
    return pkt.hdr.type == core::MsgType::kFetchRep ? 50'000.0 : 0.0;
  });
  ASSERT_TRUE(net.run().quiescent);

  const auto entries = net.flight().snapshot();
  ASSERT_EQ(entries.size(), 1u) << "exactly the slow FETCH is promoted";
  const auto& e = entries[0];
  EXPECT_EQ(e.reason, obs::FlightRecorder::Reason::kSlow);
  EXPECT_GE(e.latency_us, 50'000.0);
  // Every hop of the operation: request issued at the client, request
  // packet sent by the client and taken by the server, served at the
  // server, reply packet sent and taken back, reply linked at the client.
  auto has = [&](obs::EventType t) {
    for (const auto& ev : e.events)
      if (ev.type == t && ev.trace_id == e.trace_id) return true;
    return false;
  };
  EXPECT_TRUE(has(obs::EventType::kFetchReq));
  EXPECT_TRUE(has(obs::EventType::kFetchServed));
  EXPECT_TRUE(has(obs::EventType::kFetchReply));
  EXPECT_TRUE(has(obs::EventType::kPacketSend)) << "send hops harvested";
  EXPECT_TRUE(has(obs::EventType::kPacketRecv)) << "receive hops harvested";
  // /flight renders as Chrome trace JSON with the server-side hop.
  const std::string json = net.flight_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("FETCH-served"), std::string::npos) << json;
}

TEST(Flight, FastFetchIsNeverPromoted) {
  auto net = fetch_net();
  net.enable_tracing(1 << 12, /*sample_every=*/64, /*sample_seed=*/7);
  obs::FlightPolicy p;
  p.slow_us = 10'000.0;
  net.enable_flight(p);
  ASSERT_TRUE(net.run().quiescent);
  EXPECT_GE(net.slo().completed(), 1u) << "the FETCH completed";
  EXPECT_TRUE(net.flight().snapshot().empty())
      << "an unperturbed sim FETCH is microseconds, never 10ms";
}

// The flight recorder alone shares the one request ledger but adds no
// objective: a 50ms FETCH (ten times the default objective) is timed,
// yet a default policy promotes nothing slow, and neither /slo nor the
// slo_* rows appear.
TEST(Flight, AloneTimesThroughTheLedgerWithoutAnObjective) {
  auto net = fetch_net();
  net.enable_flight({});
  auto& sim = dynamic_cast<net::SimTransport&>(net.transport());
  sim.set_extra_cost([](const net::Packet& pkt) {
    return pkt.hdr.type == core::MsgType::kFetchRep ? 50'000.0 : 0.0;
  });
  ASSERT_TRUE(net.run().quiescent);
  ASSERT_GE(net.slo().completed(), 1u) << "the ledger timed the FETCH";
  EXPECT_GE(net.slo().e2e_snapshot(obs::SloPlane::Op::kFetch).max,
            50'000'000u);
  EXPECT_EQ(net.flight().promoted_count(obs::FlightRecorder::Reason::kSlow),
            0u);
  EXPECT_EQ(net.slo().violations(), 0u);
  EXPECT_FALSE(net.slo_enabled());
  EXPECT_EQ(net.slo_json(), "{}");
  EXPECT_EQ(net.metrics().expose_text().find("slo_"), std::string::npos);
}

TEST(Flight, TraceEndpointKeepsItsSampledViewUnderRecordAll) {
  auto net = fetch_net();
  const std::uint64_t every = 64, seed = 7;
  net.enable_tracing(1 << 12, every, seed);
  net.enable_flight({});
  ASSERT_TRUE(net.run().quiescent);
  // The rings ran in record-all mode (so the flight recorder could
  // harvest any id), but /trace must still honour 1-in-64 sampling.
  for (const auto& tt : net.collect_traces())
    for (const auto& ev : tt.events) {
      if (ev.trace_id != 0) {
        EXPECT_TRUE(obs::trace_id_sampled(ev.trace_id, every, seed))
            << "unsampled id " << ev.trace_id << " leaked into /trace";
      }
    }
}

// On a TCP network the socket-level ring (obs::kTcpSite) is one of the
// rings the recorder harvests; /flight must name its line as /trace
// does, not after the sentinel site id.
TEST(Flight, TcpSocketLineIsNamedLikeTrace) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.transport = core::Network::TransportKind::kTcp;
  auto net = two_node_net(cfg);
  submit_fetch(net);
  net.enable_tracing(1 << 12);
  obs::FlightPolicy p;
  p.slow_us = 0.001;  // every completed operation is slow
  net.enable_flight(p);
  ASSERT_TRUE(net.run().quiescent);
  ASSERT_FALSE(net.flight().snapshot().empty()) << "the FETCH was promoted";

  const std::string json = net.flight_json();
  EXPECT_NE(json.find("\"node0/tcp\""), std::string::npos) << json;
  EXPECT_EQ(json.find("site4294967294"), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Fleet stitching through the one writer
// ---------------------------------------------------------------------

/// Every event of `doc` whose ph is in `phs`, parsed.
std::vector<obs::fleet::Json> objects(const std::string& doc,
                                      const std::string& phs) {
  obs::fleet::Json parsed;
  EXPECT_TRUE(obs::fleet::parse_json(doc, parsed));
  std::vector<obs::fleet::Json> out;
  if (const auto* evs = parsed.find("traceEvents"))
    for (const auto& e : evs->items)
      if (phs.find(e.str_or("ph")) != std::string::npos) out.push_back(e);
  return out;
}

TEST(Fleet, MergeOfOneDocumentGivesBackTheExportersEvents) {
  core::Network net;
  net.add_node();
  net.add_site(0, "server");
  net.add_site(0, "client");
  net.enable_tracing(1 << 12);
  submit_fetch(net);
  ASSERT_TRUE(net.run().quiescent);

  const std::string doc = net.trace_json();
  const obs::fleet::MergedTrace merged = obs::fleet::merge_traces({doc});
  EXPECT_EQ(merged.nodes, 1u);
  EXPECT_EQ(merged.anchored, 1u);

  std::vector<obs::TraceEvent> want;
  for (const auto& tt : net.collect_traces())
    want.insert(want.end(), tt.events.begin(), tt.events.end());
  ASSERT_EQ(merged.events.size(), want.size());
  ASSERT_FALSE(want.empty());
  auto min_ts = [](const std::vector<obs::TraceEvent>& v) {
    std::uint64_t m = UINT64_MAX;
    for (const auto& e : v) m = std::min(m, e.ts_ns);
    return m;
  };
  const std::uint64_t base_want = min_ts(want);
  const std::uint64_t base_got = min_ts(merged.events);
  bool fetch = false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const obs::TraceEvent& w = want[i];
    const obs::TraceEvent& g = merged.events[i];
    EXPECT_EQ(g.type, w.type) << "event " << i;
    EXPECT_EQ(g.node, w.node) << "event " << i;
    EXPECT_EQ(g.site, w.site) << "event " << i;
    EXPECT_EQ(g.trace_id, w.trace_id) << "event " << i;
    EXPECT_EQ(g.arg, w.arg) << "event " << i;
    const auto rel_want = static_cast<std::int64_t>(w.ts_ns - base_want);
    const auto rel_got = static_cast<std::int64_t>(g.ts_ns - base_got);
    EXPECT_LE(std::llabs(rel_got - rel_want), 1) << "event " << i;
    fetch |= w.type == obs::EventType::kFetchReq && w.trace_id != 0;
  }
  EXPECT_TRUE(fetch) << "the run traced a FETCH";

  // The same flow arrows and the same thread lines.
  const auto flows_want = objects(doc, "stf");
  const auto flows_got = objects(merged.json, "stf");
  ASSERT_FALSE(flows_want.empty());
  ASSERT_EQ(flows_got.size(), flows_want.size());
  for (std::size_t i = 0; i < flows_want.size(); ++i) {
    const auto& w = flows_want[i];
    const auto& g = flows_got[i];
    EXPECT_EQ(g.str_or("ph"), w.str_or("ph")) << "flow " << i;
    EXPECT_EQ(g.u64_or("id", 0), w.u64_or("id", 0)) << "flow " << i;
    EXPECT_EQ(g.u64_or("pid", 0), w.u64_or("pid", 0)) << "flow " << i;
    EXPECT_EQ(g.u64_or("tid", 0), w.u64_or("tid", 0)) << "flow " << i;
    EXPECT_NEAR(g.num_or("ts", -1), w.num_or("ts", -2), 0.0015)
        << "flow " << i;
  }
  const auto names_want = objects(doc, "M");
  const auto names_got = objects(merged.json, "M");
  ASSERT_EQ(names_got.size(), names_want.size());
  for (std::size_t i = 0; i < names_want.size(); ++i)
    EXPECT_EQ(names_got[i].find("args")->str_or("name"),
              names_want[i].find("args")->str_or("name"));
}

// Documents arrive over HTTP from other processes: anything malformed,
// and any object no EventType renders as, is skipped without a crash.
TEST(Fleet, MergeSkipsMalformedDocumentsAndUnknownEvents) {
  const std::string good =
      "{\"traceEvents\":["
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"SHIPM-out\","
      "\"pid\":1,\"tid\":2,\"ts\":5.5,"
      "\"args\":{\"arg\":9,\"trace_id\":3}},"
      "{\"ph\":\"i\",\"name\":\"NOT-AN-EVENT\",\"pid\":1,\"tid\":2,"
      "\"ts\":1},"
      "{\"ph\":\"X\",\"name\":\"COMM\",\"pid\":1,\"tid\":2,\"ts\":1},"
      "{\"ph\":\"i\",\"name\":\"COMM\",\"pid\":1,\"tid\":2,\"ts\":-4},"
      "{\"ph\":\"i\",\"name\":\"COMM\",\"pid\":1,\"tid\":2,"
      "\"ts\":\"soon\"},"
      "{\"ph\":\"i\",\"name\":\"COMM\",\"pid\":8589934593,\"tid\":2,"
      "\"ts\":1},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2},"
      "7,\"text\",[]],"
      // An anchor whose wall clock overflows in ns is ignored.
      "\"otherData\":{\"steady_now_ns\":5,\"ts_base_ns\":1,"
      "\"wall_now_us\":18446744073709551615}}";
  const obs::fleet::MergedTrace merged = obs::fleet::merge_traces(
      {"", "not json", "{\"traceEvents\":[", "{\"traceEvents\":{}}",
       "[1,2]", std::string(200, '['), good});
  EXPECT_EQ(merged.nodes, 1u);
  EXPECT_EQ(merged.anchored, 0u);
  ASSERT_EQ(merged.events.size(), 1u);
  const obs::TraceEvent& e = merged.events[0];
  EXPECT_EQ(e.type, obs::EventType::kShipMsgOut);
  EXPECT_EQ(e.node, 1u);
  EXPECT_EQ(e.site, 2u);
  EXPECT_EQ(e.trace_id, 3u);
  EXPECT_EQ(e.arg, 9u);
  EXPECT_EQ(e.ts_ns, 5500u);
  // A line the documents never named falls back to the one naming rule.
  EXPECT_NE(merged.json.find("\"node1/site2\""), std::string::npos)
      << merged.json;
  obs::fleet::Json parsed;
  EXPECT_TRUE(obs::fleet::parse_json(merged.json, parsed));
}

// ---------------------------------------------------------------------
// Profiler sanity at the network level
// ---------------------------------------------------------------------

TEST(Profiler, FoldedStacksNameUserDefinitions) {
  core::Network net{{}};
  net.add_node();
  net.add_site(0, "main");
  net.enable_profiling(/*period=*/8);
  net.submit_source("main",
                    "def Spin(i) = if i == 0 then print[\"done\"] else "
                    "Spin[i - 1] in Spin[500]");
  ASSERT_TRUE(net.run().quiescent);
  const std::string folded = net.profile_folded();
  ASSERT_FALSE(folded.empty());
  // site;definition;opcode count — with the definition's source name.
  EXPECT_NE(folded.find("main;"), std::string::npos) << folded;
  EXPECT_NE(folded.find(";Spin;"), std::string::npos) << folded;
}

}  // namespace
}  // namespace dityco
