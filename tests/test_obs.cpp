// Observability layer: metrics registry semantics, trace-ring behaviour,
// trace-id propagation through the wire format, and end-to-end causal
// tracing on a 2-node simulated cluster.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "calculus/reducer.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
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
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(5.0);    // <= 10
  h.observe(50.0);   // <= 100
  h.observe(500.0);  // +inf
  h.observe(10.0);   // boundary lands in its own bucket (inclusive)
  auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.total, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 565.5);
}

TEST(Metrics, RegistryOwnedAndCollected) {
  obs::Registry reg;
  ++reg.counter("owned_total");
  reg.gauge("owned_depth").set(3);
  std::uint64_t live = 42;
  auto token = reg.add_collector([&](obs::Collector& c) {
    c.counter("collected_total", live);
  });
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("owned_total"), 1u);
  EXPECT_EQ(snap.counters.at("collected_total"), 42u);
  EXPECT_EQ(snap.gauges.at("owned_depth"), 3);

  // RAII: dropping the token removes the collector.
  token.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("collected_total"), 0u);

  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("owned_total 1"), std::string::npos);
  const std::string json = reg.expose_json();
  EXPECT_NE(json.find("\"owned_total\":1"), std::string::npos);
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
  reg.histogram("lat_us", {1.0, 10.0}).observe(3.0);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
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
  core::write_header(w, core::MsgType::kShipObj, 7, 0xdeadbeefull);
  w.u64(123);
  auto bytes = w.take();
  net::Packet p;
  p.bytes = bytes;
  // Routing helpers must see through the trace flag.
  EXPECT_EQ(core::packet_dst_site(p), 7u);
  EXPECT_EQ(core::packet_type(bytes), core::MsgType::kShipObj);
  EXPECT_EQ(core::packet_trace_id(bytes), 0xdeadbeefull);

  Reader r(bytes);
  const core::PacketHeader h = core::read_header(r);
  EXPECT_EQ(h.type, core::MsgType::kShipObj);
  EXPECT_EQ(h.dst_site, 7u);
  EXPECT_EQ(h.trace_id, 0xdeadbeefull);
  EXPECT_EQ(r.u64(), 123u) << "payload follows the header";
}

TEST(WireTrace, UntracedHeaderIsByteIdenticalToV1) {
  // The one layout, written by hand: [type u8][dst u32], and with a trace
  // id [type|kTraceFlag|kSampledFlag u8][dst u32][trace_id u64].
  Writer untraced;
  core::write_header(untraced, core::MsgType::kShipMsg, 3, /*trace_id=*/0);
  Writer want;
  want.u8(static_cast<std::uint8_t>(core::MsgType::kShipMsg));
  want.u32(3);
  EXPECT_EQ(untraced.take(), want.take());

  Writer traced;
  core::write_header(traced, core::MsgType::kShipMsg, 3, 0xabcdull);
  want.u8(static_cast<std::uint8_t>(core::MsgType::kShipMsg) |
          core::kTraceFlag | core::kSampledFlag);
  want.u32(3);
  want.u64(0xabcdull);
  EXPECT_EQ(traced.take(), want.take());
}

TEST(WireTrace, OldFormatPacketStillDecodes) {
  // An untraced frame written by hand (no flag, no trace id).
  Writer w;
  w.u8(static_cast<std::uint8_t>(core::MsgType::kFetchReq));
  w.u32(9);
  auto bytes = w.take();
  Reader r(bytes);
  const core::PacketHeader h = core::read_header(r);
  EXPECT_EQ(h.type, core::MsgType::kFetchReq);
  EXPECT_EQ(h.dst_site, 9u);
  EXPECT_EQ(h.trace_id, 0u);
  EXPECT_EQ(core::packet_trace_id(bytes), 0u);
}

TEST(WireTrace, SampledBitRoundTrip) {
  // Sampled traced frame (the default).
  Writer ws;
  core::write_header(ws, core::MsgType::kShipMsg, 4, 0xabcdull,
                     /*sampled=*/true);
  auto sb = ws.take();
  EXPECT_EQ(sb[0], 0x01 | core::kTraceFlag | core::kSampledFlag);
  EXPECT_TRUE(core::packet_sampled(sb));
  Reader rs(sb);
  const core::PacketHeader hs = core::read_header(rs);
  EXPECT_TRUE(hs.sampled);
  EXPECT_EQ(hs.trace_id, 0xabcdull);

  // Unsampled traced frame: the id is still carried (causality survives)
  // but the bit tells every hop to skip recording.
  Writer wu;
  core::write_header(wu, core::MsgType::kShipMsg, 4, 0xabcdull,
                     /*sampled=*/false);
  auto ub = wu.take();
  EXPECT_EQ(ub[0], 0x01 | core::kTraceFlag);
  EXPECT_FALSE(core::packet_sampled(ub));
  EXPECT_EQ(core::packet_type(ub), core::MsgType::kShipMsg)
      << "routing helpers see through both flag bits";
  EXPECT_EQ(core::packet_trace_id(ub), 0xabcdull);
  Reader ru(ub);
  const core::PacketHeader hu = core::read_header(ru);
  EXPECT_FALSE(hu.sampled);
  EXPECT_EQ(hu.trace_id, 0xabcdull);
  EXPECT_EQ(hu.dst_site, 4u);

  // Untraced frames carry no decision: the sampled argument is not
  // written, and they decode as sampled so nothing suppresses recording.
  Writer wn;
  core::write_header(wn, core::MsgType::kShipMsg, 4, /*trace_id=*/0,
                     /*sampled=*/false);
  auto nb = wn.take();
  EXPECT_EQ(nb, (std::vector<std::uint8_t>{0x01, 4, 0, 0, 0}));
  EXPECT_TRUE(core::packet_sampled(nb));
  Reader rn(nb);
  EXPECT_TRUE(core::read_header(rn).sampled);
}

TEST(WireTrace, UnknownTypeRejected) {
  Writer w;
  w.u8(0x7f);  // not a MsgType even with the flag masked off
  w.u32(0);
  auto bytes = w.take();
  Reader r(bytes);
  EXPECT_THROW(core::read_header(r), DecodeError);
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

TEST(Flight, AbsoluteLatencyThresholdDecidesPromotion) {
  obs::TraceRing ring;
  ring.enable(64, 0, 0);
  obs::FlightRecorder fr;
  obs::FlightPolicy p;
  p.slow_us = 100.0;
  fr.configure(p);
  fr.attach_ring(&ring);

  fr.on_depart(1, 1'000);
  EXPECT_FALSE(fr.on_complete(1, 50'000)) << "49us < 100us: fast";
  fr.on_depart(2, 1'000);
  EXPECT_TRUE(fr.on_complete(2, 201'000)) << "200us >= 100us: slow";
  EXPECT_EQ(fr.completions(), 2u);
  EXPECT_EQ(fr.promoted_count(obs::FlightRecorder::Reason::kSlow), 1u);
  const auto entries = fr.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].latency_us, 200.0);
}

TEST(Flight, PercentilePolicyKeepsTheTail) {
  obs::FlightRecorder fr;
  obs::FlightPolicy p;
  p.slow_pctl = 0.5;
  p.pctl_min_samples = 4;
  fr.configure(p);
  // Below min samples nothing fires, however slow.
  fr.on_depart(1, 0);
  EXPECT_FALSE(fr.on_complete(1, 1'000'000'000));
  // Build a distribution of ~2us completions...
  for (std::uint64_t id = 2; id < 100; ++id) {
    fr.on_depart(id, 0);
    fr.on_complete(id, 2'000);
  }
  // ...then a 1s outlier must land beyond the median bucket bound.
  fr.on_depart(1000, 0);
  EXPECT_TRUE(fr.on_complete(1000, 1'000'000'000'000ull));
  // And a typical completion still must not.
  fr.on_depart(1001, 0);
  EXPECT_FALSE(fr.on_complete(1001, 2'000));
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

/// The acceptance scenario: under the sim driver with 1-in-64 head
/// sampling, one artificially slow FETCH (extra virtual latency injected
/// on its reply packet) must land in /flight with EVERY hop of its trace
/// id — deterministically, whatever its sampling bit says — while a
/// fast control run promotes nothing.
core::Network fetch_net() {
  auto net = two_node_net(sim_cfg());
  net.submit_source("server",
                    "export def Applet(out) = out![1 + 2] in 0");
  net.submit_source("client",
                    "import Applet from server in "
                    "new p (Applet[p] | p?(v) = print[v])");
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
    return core::packet_type(pkt.bytes) == core::MsgType::kFetchRep
               ? 50'000.0
               : 0.0;
  });
  ASSERT_TRUE(net.run().quiescent);

  const auto entries = net.flight().snapshot();
  ASSERT_EQ(entries.size(), 1u) << "exactly the slow FETCH is promoted";
  const auto& e = entries[0];
  EXPECT_EQ(e.reason, obs::FlightRecorder::Reason::kSlow);
  EXPECT_GE(e.latency_us, 50'000.0);
  // Every hop of the operation: request issued at the client, request
  // packet through both daemons, served at the server, reply packet
  // through both daemons, reply linked at the client.
  auto has = [&](obs::EventType t) {
    for (const auto& ev : e.events)
      if (ev.type == t && ev.trace_id == e.trace_id) return true;
    return false;
  };
  EXPECT_TRUE(has(obs::EventType::kFetchReq));
  EXPECT_TRUE(has(obs::EventType::kFetchServed));
  EXPECT_TRUE(has(obs::EventType::kFetchReply));
  EXPECT_TRUE(has(obs::EventType::kPacketSend)) << "daemon hops harvested";
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
  EXPECT_GE(net.flight().completions(), 1u) << "the FETCH completed";
  EXPECT_TRUE(net.flight().snapshot().empty())
      << "an unperturbed sim FETCH is microseconds, never 10ms";
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
    for (const auto& ev : tt.events)
      if (ev.trace_id != 0)
        EXPECT_TRUE(obs::trace_id_sampled(ev.trace_id, every, seed))
            << "unsampled id " << ev.trace_id << " leaked into /trace";
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
