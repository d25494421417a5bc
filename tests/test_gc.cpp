// Distributed GC for network references (DESIGN.md §GC): credit-based
// reference counting over the wire protocol, proven by leak checks.
//
// The acceptance bar: after representative workloads — a token ring over
// imported names, class fetching, object shipping — every site's export
// table and the name service's IdTable are empty once the final GC epoch
// (Network::collect_garbage) runs, and heaps return to their baselines.
// Machine-level tests pin the REL protocol's idempotence (duplicates,
// reorders, stale releases) and the credit-split starvation path.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "obs/fleet.hpp"
#include "vm/machine.hpp"

namespace dityco::core {
namespace {

// ---------------------------------------------------------------------
// Network-level leak checks
// ---------------------------------------------------------------------

/// Three sites on three nodes passing a token around a ring of imported
/// names. Exercises export/import via the name service plus SHIPM credit
/// transfer in both directions; r0 prints the token after two hops.
void build_ring(Network& net) {
  net.add_node();
  net.add_node();
  net.add_node();
  net.add_site(0, "r0");
  net.add_site(1, "r1");
  net.add_site(2, "r2");
  net.submit_source(
      "r0", "export new c0 in import c1 from r1 in (c1![0] | c0?(v) = print[v])");
  net.submit_source("r1",
                    "export new c1 in import c2 from r2 in c1?(v) = c2![v + 1]");
  net.submit_source("r2",
                    "export new c2 in import c0 from r0 in c2?(v) = c0![v + 1]");
}

void expect_all_empty(Network& net, const Network::GcReport& rep) {
  EXPECT_EQ(rep.exports_live, 0u) << "export-table entries leaked";
  EXPECT_EQ(rep.netrefs_live, 0u) << "netref slots leaked";
  EXPECT_EQ(rep.ns_ids, 0u) << "IdTable bindings leaked";
  for (const auto& n : net.nodes())
    for (const auto& s : n->sites()) {
      EXPECT_EQ(s->machine().live_exports(), 0u) << s->name();
      EXPECT_EQ(s->machine().exports_outstanding(), 0u) << s->name();
      EXPECT_EQ(s->machine().live_channels(), 0u) << s->name();
    }
}

TEST(Gc, RingDrainsToEmpty) {
  Network net;
  build_ring(net);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("r0"), std::vector<std::string>{"2"});
  auto rep = net.collect_garbage();
  EXPECT_GE(rep.rounds, 1u);
  expect_all_empty(net, rep);
  // Every site reclaimed its own exported name's entry.
  for (const auto& n : net.nodes())
    for (const auto& s : n->sites())
      EXPECT_GE(s->machine().gc_stats().exports_reclaimed, 1u) << s->name();
}

TEST(Gc, FetchMobilityDrainsToEmpty) {
  // Class code fetching (FETCH/instof) with the dynamic-link cache: the
  // cached class value and its keying netref are pinned during the run
  // and dropped by the final epoch.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_network_source(
      "site server { export def A(out) = out![1] in 0 }\n"
      "site client { import A from server in "
      "new p (A[p] | p?(a) = (print[a] | A[p] | p?(b) = print[b])) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), (std::vector<std::string>{"1", "1"}));
  EXPECT_EQ(net.find_site("client")->mobility().fetch_cache_hits, 1u);
  expect_all_empty(net, net.collect_garbage());
}

TEST(Gc, ShipObjectDrainsToEmpty) {
  // SHIPO: the object (with its marshalled environment) migrates to the
  // imported name and reduces there.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_network_source(
      "site server { export new x in x![10] }\n"
      "site client { import x from server in x?(v) = print[v + 1] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"11"});
  EXPECT_EQ(net.find_site("client")->mobility().objs_shipped, 1u);
  expect_all_empty(net, net.collect_garbage());
}

TEST(Gc, ReplyChannelReclaimedDuringRun) {
  // The classic RPC leak: the client marshals a fresh reply channel per
  // call, creating an export-table entry the pre-GC runtime could never
  // drop. With credit GC the server's collection releases the carried
  // credit as soon as its handle dies, and the entry drains *during the
  // run* — no final epoch needed.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server", "export new p in p?{ val(x, r) = r![x * 2] }");
  net.submit_source("client",
                    "import p from server in let z = p![5] in print[z]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"10"});
  Site& client = *net.find_site("client");
  Site& server = *net.find_site("server");
  EXPECT_EQ(client.machine().live_exports(), 0u)
      << "reply-channel entry must auto-reclaim at quiescence";
  EXPECT_EQ(client.machine().gc_stats().exports_reclaimed, 1u);
  EXPECT_EQ(server.machine().live_netrefs(), 0u);
  EXPECT_GE(server.mobility().gc_rel_sent, 1u);
  EXPECT_GE(client.mobility().gc_rel_received, 1u);
  expect_all_empty(net, net.collect_garbage());
}

TEST(Gc, ThreadedRingDrainsToEmpty) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.timeout_ms = 5000;
  Network net(cfg);
  build_ring(net);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("r0"), std::vector<std::string>{"2"});
  expect_all_empty(net, net.collect_garbage());
}

TEST(Gc, SimRingDrainsToEmpty) {
  // The sim driver defers GC entirely (virtual-time results must not pay
  // for collection passes); the final epoch drives the timed transport
  // with a far-future clock and still drains everything.
  Network::Config cfg;
  cfg.mode = Network::Mode::kSim;
  Network net(cfg);
  build_ring(net);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_GT(res.virtual_time_us, 0.0);
  EXPECT_EQ(net.output("r0"), std::vector<std::string>{"2"});
  std::size_t live = 0;
  for (const auto& n : net.nodes())
    for (const auto& s : n->sites()) live += s->machine().live_exports();
  EXPECT_GT(live, 0u) << "sim mode must not collect mid-run";
  expect_all_empty(net, net.collect_garbage());
}

TEST(Gc, MetricsExposed) {
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server", "export new p in p?{ val(x, r) = r![x] }");
  net.submit_source("client", "import p from server in let z = p![1] in 0");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  net.collect_garbage();
  const std::string text = net.metrics().expose_text();
  EXPECT_NE(text.find("site_exports_live{site=\"server\"}"), std::string::npos);
  EXPECT_NE(text.find("site_gc_reclaimed_total{site=\"client\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ns_unregisters{ns=\"shard0\"}"), std::string::npos);
}

// ---------------------------------------------------------------------
// Machine-level REL protocol semantics
// ---------------------------------------------------------------------

using vm::Machine;
using vm::NetRef;
using vm::Value;

/// Marshal a local channel out of `owner` (minting credit) and intern
/// the resulting reference at `holder`; returns the netref Value.
Value ship_chan(Machine& owner, std::uint32_t chan, Machine& holder) {
  Writer w;
  marshal_value(owner, Value::make_chan(chan), w);
  const auto bytes = w.take();
  Reader r(bytes);
  return unmarshal_value(holder, r);
}

TEST(GcProtocol, ReleaseDrainsAndReclaims) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  const Value v = ship_chan(owner, ch, peer);
  ASSERT_EQ(v.tag, Value::Tag::kNetRef);
  EXPECT_EQ(owner.live_exports(), 1u);
  EXPECT_EQ(owner.exports_outstanding(), peer.netref_credit_total());

  peer.gc();  // no roots: the handle dies, its balance joins the ledger
  auto rels = peer.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  const auto [ref, cum] = rels[0];
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, peer.node_id(),
                                peer.site_id(), cum),
            Machine::ReleaseResult::kReclaimed);
  EXPECT_EQ(owner.live_exports(), 0u);
  owner.gc();
  EXPECT_EQ(owner.live_channels(), 0u);
}

TEST(GcProtocol, DuplicateReleaseIsStale) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  ship_chan(owner, ch, peer);
  peer.gc();
  const auto rels = peer.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  const auto [ref, cum] = rels[0];
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum),
            Machine::ReleaseResult::kReclaimed);
  // The duplicate targets a reclaimed entry (heap ids are never reused):
  // stale, harmless.
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum),
            Machine::ReleaseResult::kStale);
  EXPECT_GE(owner.gc_stats().rel_stale, 1u);
}

TEST(GcProtocol, ReorderedReleasesMaxMerge) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  // Two marshals of the same channel: minted twice against one entry.
  ship_chan(owner, ch, peer);
  peer.gc();
  const auto first = peer.take_pending_releases();
  ASSERT_EQ(first.size(), 1u);
  const auto [ref, cum1] = first[0];

  ship_chan(owner, ch, peer);  // second handle, same heap id
  peer.gc();
  const auto second = peer.take_pending_releases();
  ASSERT_EQ(second.size(), 1u);
  const auto cum2 = second[0].second;
  ASSERT_GT(cum2, cum1) << "cumulative totals only grow";

  // Deliver newest-first; the older total must be recognised as stale
  // and must not resurrect outstanding credit.
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum2),
            Machine::ReleaseResult::kReclaimed);
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum1),
            Machine::ReleaseResult::kStale);
  EXPECT_EQ(owner.live_exports(), 0u);
}

TEST(GcProtocol, PartialReleaseDoesNotReclaim) {
  Machine owner("owner", 0, 0);
  Machine a("a", 1, 0);
  Machine b("b", 2, 0);
  const std::uint32_t ch = owner.new_channel();
  ship_chan(owner, ch, a);
  ship_chan(owner, ch, b);  // two holders, minted twice
  a.gc();
  const auto rels = a.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  const auto [ref, cum] = rels[0];
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum),
            Machine::ReleaseResult::kApplied);
  EXPECT_EQ(owner.live_exports(), 1u) << "b still holds credit";
  EXPECT_EQ(owner.exports_outstanding(), b.netref_credit_total());
}

TEST(GcProtocol, NameServicePinBlocksReclaim) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  const Value v = ship_chan(owner, ch, peer);
  const NetRef ref = peer.netref(v.idx);
  owner.pin_name(ref);
  peer.gc();
  const auto rels = peer.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, rels[0].second),
            Machine::ReleaseResult::kApplied)
      << "fully drained but pinned: no reclaim";
  EXPECT_EQ(owner.live_exports(), 1u);
  owner.unpin_name(ref);
  EXPECT_EQ(owner.live_exports(), 0u) << "unpin completes the reclaim";
}

TEST(GcProtocol, ForwardingSplitsCreditAndStarves) {
  Machine owner("owner", 0, 0);
  Machine a("a", 1, 0);
  Machine b("b", 2, 0);
  const std::uint32_t ch = owner.new_channel();
  const Value va = ship_chan(owner, ch, a);

  // Forward a -> b: half the balance travels.
  Writer w;
  marshal_value(a, va, w);
  const auto bytes = w.take();
  Reader r(bytes);
  unmarshal_value(b, r);
  EXPECT_EQ(a.netref_credit_total(), vm::kMintCredit / 2);
  EXPECT_EQ(b.netref_credit_total(), vm::kMintCredit / 2);
  EXPECT_EQ(owner.exports_outstanding(),
            a.netref_credit_total() + b.netref_credit_total());

  // Starvation: a balance of 1 cannot split — the copy ships weak
  // (credit 0) and the starvation counter records the safe leak.
  Machine c("c", 3, 0);
  const std::uint32_t idx =
      c.intern_netref_credit(NetRef{NetRef::Kind::kChan, 0, 0, 999}, 1);
  EXPECT_EQ(c.split_netref_credit(idx), 0u);
  EXPECT_EQ(c.gc_stats().credit_starved, 1u);
}

TEST(GcProtocol, HeapSlotsAreReused) {
  Machine m("m", 0, 0);
  const std::uint32_t a = m.new_channel();
  const std::uint32_t b = m.new_channel();
  EXPECT_EQ(m.live_channels(), 2u);
  m.gc();  // both unreachable
  EXPECT_EQ(m.live_channels(), 0u);
  const std::uint32_t c = m.new_channel();
  EXPECT_TRUE(c == a || c == b) << "freed slots are recycled";
  EXPECT_EQ(m.live_channels(), 1u);
}

// ---------------------------------------------------------------------
// GC snapshots and the credit audit plane
// ---------------------------------------------------------------------

TEST(GcSnapshot, LedgersMirrorTheExportTable) {
  // One channel shipped to two holders, one of which releases: the
  // snapshot must expose the full per-entry ledger — mint/return/release
  // totals, the applied releaser slot under its (node<<32)|site key —
  // plus the holder's import balance and the releaser's cumulative
  // ledger, which outlives the handle.
  Machine owner("owner", 0, 0);
  Machine a("a", 1, 0);
  Machine b("b", 2, 1);
  const std::uint32_t ch = owner.new_channel();
  ship_chan(owner, ch, a);
  ship_chan(owner, ch, b);
  a.gc();
  const auto rels = a.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  const auto [ref, cum] = rels[0];
  ASSERT_EQ(owner.apply_release(ref.kind, ref.heap_id, a.node_id(),
                                a.site_id(), cum),
            Machine::ReleaseResult::kApplied);

  const auto snap = owner.gc_snapshot();
  EXPECT_EQ(snap.node, 0u);
  ASSERT_EQ(snap.exports.size(), 1u);
  const auto& e = snap.exports[0];
  EXPECT_EQ(e.heap_id, ref.heap_id);
  EXPECT_EQ(e.minted, 2 * vm::kMintCredit);
  EXPECT_EQ(e.released, cum);
  EXPECT_EQ(e.minted, e.returned + e.released + e.outstanding);
  EXPECT_EQ(e.outstanding, b.netref_credit_total());
  ASSERT_EQ(e.releasers.size(), 1u);
  EXPECT_EQ(e.releasers[0].first, (std::uint64_t{1} << 32) | 0u);
  EXPECT_EQ(e.releasers[0].second, cum);
  EXPECT_EQ(snap.outstanding, e.outstanding);
  EXPECT_GT(e.touched_ns, 0u);

  const auto held = b.gc_snapshot();
  ASSERT_EQ(held.imports.size(), 1u);
  EXPECT_EQ(held.imports[0].credit, e.outstanding);
  EXPECT_EQ(held.held, e.outstanding);
  const auto released = a.gc_snapshot();
  ASSERT_EQ(released.releases.size(), 1u);
  EXPECT_EQ(released.releases[0].cum, cum);
  EXPECT_EQ(released.held, 0u);
}

TEST(GcAudit, DroppedRelIsFlaggedThenHealed) {
  // A REL frame the wire loses shows up in the fleet audit as lag on the
  // owner's entry — the releaser's cumulative ledger declares more than
  // the owner's applied slot — and an at-rest cumulative retransmission
  // (Network::heal_releases) clears it. Resend timer deliberately off so
  // the imbalance persists until healed explicitly.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  auto& tr = dynamic_cast<net::InProcTransport&>(net.transport());
  auto first = std::make_shared<std::atomic<bool>>(true);
  tr.set_drop_filter([first](const net::Packet& p) {
    return packet_type(p.bytes) == MsgType::kRelease && first->exchange(false);
  });
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x] | S[self]) } in "
                    "export new p in S[p]");
  net.submit_source("client",
                    "import p from server in new a (p![7, a] | a?(v) = 0)");
  ASSERT_TRUE(net.run().quiescent);
  ASSERT_TRUE(net.all_errors().empty());
  net.collect_garbage();
  ASSERT_GE(tr.dropped(), 1u) << "the fault fired";

  namespace fleet = obs::fleet;
  auto audit = [&net] {
    fleet::Json gc, names;
    EXPECT_TRUE(fleet::parse_json(net.gc_json(), gc));
    EXPECT_TRUE(fleet::parse_json(net.names_json(), names));
    return fleet::audit({gc}, {names}, {0, 1});
  };

  const fleet::AuditReport broken = audit();
  EXPECT_FALSE(broken.balanced) << broken.to_text();
  EXPECT_GT(broken.lag, 0u);
  ASSERT_GE(broken.offenders.size(), 1u);
  EXPECT_EQ(broken.offenders[0].why, "rel_lost");
  // Whichever REL went first — the server's for the client's reply
  // channel, or the client's for the service — the lag pins its owner.
  EXPECT_LE(broken.offenders[0].owner_node, 1u);
  EXPECT_GT(broken.offenders[0].lag, 0u);

  // Heal: retransmit every cumulative REL at rest and drain; the
  // idempotent max-merge at the owner absorbs the replay.
  EXPECT_GT(net.heal_releases(), 0u);
  const fleet::AuditReport healed = audit();
  EXPECT_TRUE(healed.balanced) << healed.to_text();
  EXPECT_EQ(healed.lag, 0u);
  EXPECT_EQ(net.collect_garbage().exports_live, 0u);
}

TEST(GcAudit, CreditInFlightIsNotALeak) {
  // An export mints the name service's credit before its frame reaches
  // the shard primary. While the frame is queued in a transport the
  // owner's residual cannot be told from a leak, so the audit reports it
  // unverifiable; once the fleet settles without the frame (lost), the
  // same residual is a confirmed leak.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "idle");
  Site& server = net.add_site(1, "server");
  net::Transport& tr = net.transport();
  net.submit_source("server", "export new p in 0");
  server.run_slice(1000);
  net.nodes()[1]->pump_outgoing(tr, 0);
  ASSERT_EQ(tr.in_flight(), 1u) << "the export frame is on the wire";

  namespace fleet = obs::fleet;
  auto audit = [&net] {
    fleet::Json gc, names;
    EXPECT_TRUE(fleet::parse_json(net.gc_json(), gc));
    EXPECT_TRUE(fleet::parse_json(net.names_json(), names));
    return fleet::audit({gc}, {names}, {0, 1});
  };
  const fleet::AuditReport in_flight = audit();
  EXPECT_TRUE(in_flight.balanced) << in_flight.to_text();
  EXPECT_FALSE(in_flight.verifiable) << in_flight.to_text();
  EXPECT_TRUE(in_flight.offenders.empty()) << in_flight.to_text();

  net::Packet lost;
  ASSERT_TRUE(tr.recv(0, lost, 0));
  const fleet::AuditReport settled = audit();
  EXPECT_FALSE(settled.balanced) << settled.to_text();
  ASSERT_EQ(settled.offenders.size(), 1u) << settled.to_text();
  EXPECT_EQ(settled.offenders[0].why, "leak");
  EXPECT_EQ(settled.offenders[0].owner_node, 1u);
}

}  // namespace
}  // namespace dityco::core
