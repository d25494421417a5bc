// Fault tolerance (the paper's future-work item, section 7: "detect site
// failures, reconfigure the computation topology and try to terminate
// computations cleanly"): site-failure injection, dropped-delivery
// accounting, clean termination around dead sites, and failover by
// re-exporting a dead site's identifiers from a backup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "ns/shard.hpp"
#include "vm/machine.hpp"

namespace dityco::core {
namespace {

TEST(Fault, DeliveriesToDeadSiteAreDropped) {
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x] | S[self]) } in "
                    "export new p in S[p]");
  // Resolve the import first so the client holds a live netref.
  net.submit_source("client",
                    "import p from server in new a (p![0, a] | a?(v) = 0)");
  auto r1 = net.run();
  EXPECT_TRUE(r1.quiescent);
  EXPECT_TRUE(net.all_errors().empty());

  net.find_site("server")->kill();
  net.submit_source("client",
                    "import p from server in let z = p![1] in print[z]");
  auto r2 = net.run();
  // The RPC can never complete, but the network terminates cleanly: the
  // message was dropped at the dead site, nothing is left running.
  EXPECT_FALSE(r2.budget_exhausted);
  EXPECT_GE(net.find_site("server")->mobility().dropped, 1u);
  EXPECT_TRUE(net.output("client").empty());
}

TEST(Fault, DeadSiteStopsExecuting) {
  Network net;
  net.add_node();
  net.add_site(0, "main");
  net.submit_source("main", "def Loop(i) = Loop[i + 1] in Loop[0]");
  net.find_site("main")->kill();
  auto res = net.run();
  EXPECT_FALSE(res.budget_exhausted) << "a dead site must not execute";
  EXPECT_EQ(res.instructions, 0u);
}

TEST(Fault, ParkedFramesOfDeadSiteDoNotStallTheNetwork) {
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  // Client parks on an import that will never resolve...
  net.submit_source("client", "import ghost from server in ghost![1]");
  auto r1 = net.run();
  EXPECT_TRUE(r1.stalled);
  // ...then crashes. The survivors' view: nothing outstanding.
  net.find_site("client")->kill();
  net.submit_source("server", "print[\"alive\"]");
  auto r2 = net.run();
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"alive"});
  // The name service still holds the dead client's lookup (it has no
  // failure detector — future work in the paper and here), but no live
  // site is blocked.
  EXPECT_FALSE(r2.budget_exhausted);
}

TEST(Fault, FailoverByReexport) {
  // Reconfiguration: a backup site re-exports the dead primary's service
  // name; clients that import afterwards are routed to the backup.
  Network net;
  net.add_node();
  net.add_node();
  net.add_node();
  net.add_site(0, "primary");
  net.add_site(1, "backup");
  net.add_site(2, "client");

  net.submit_source("primary",
                    "export new p in p?{ val(x, r) = r![x + 1] }");
  auto r1 = net.run();
  EXPECT_TRUE(r1.quiescent);
  net.find_site("primary")->kill();

  // The backup takes over the (site-qualified) identity by exporting
  // under the primary's site name is not possible — names are keyed by
  // exporting site — so the service name is re-homed: clients are told
  // to import from the backup. (A transparent takeover would need the
  // distributed name service the paper defers to future work.)
  net.submit_source("backup",
                    "export new p in p?{ val(x, r) = r![x + 100] }");
  net.submit_source("client",
                    "import p from backup in let z = p![1] in print[z]");
  auto r2 = net.run();
  EXPECT_TRUE(r2.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"101"});
}

TEST(Fault, ReexportAtSameSiteReplacesBinding) {
  // The name service keeps the newest binding for a key: a site can
  // replace its own export (e.g. after an internal restart).
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server", "export new p in p?{ val(x, r) = r![1] }");
  auto r1 = net.run();
  EXPECT_TRUE(r1.quiescent);
  net.submit_source("server", "export new p in p?{ val(x, r) = r![2] }");
  auto r2 = net.run();
  EXPECT_TRUE(r2.quiescent);
  net.submit_source("client",
                    "import p from server in let z = p![0] in print[z]");
  auto r3 = net.run();
  EXPECT_TRUE(r3.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"2"});
}

// ---------------------------------------------------------------------
// Distributed-GC REL protocol under message faults (DESIGN.md §GC).
//
// These drive two Machines directly through the marshalling layer and
// play the REL frames by hand, so drops, duplicates and reorders are
// exact. The invariant under every fault: an entry is never reclaimed
// while credit is still outstanding (premature free is the unrecoverable
// failure; a delayed reclaim is just a deferred leak).
// ---------------------------------------------------------------------

using vm::Machine;
using vm::Value;

/// Ship a minted handle for `chan` from `owner` into `holder`.
void ship(Machine& owner, std::uint32_t chan, Machine& holder) {
  Writer w;
  marshal_value(owner, Value::make_chan(chan), w);
  const auto bytes = w.take();
  Reader r(bytes);
  unmarshal_value(holder, r);
}

TEST(Fault, DroppedRelIsHealedByResend) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  ship(owner, ch, peer);
  peer.gc();
  auto lost = peer.take_pending_releases();  // ...and the REL is dropped
  ASSERT_EQ(lost.size(), 1u);

  // No premature reclaim: the owner never saw the release.
  EXPECT_EQ(owner.live_exports(), 1u);
  EXPECT_GT(owner.exports_outstanding(), 0u);
  EXPECT_TRUE(peer.take_pending_releases().empty())
      << "the pending set was consumed; only a resend can heal";

  // Healing: retransmit every cumulative total (idempotent at the owner).
  auto resend = peer.all_releases();
  ASSERT_EQ(resend.size(), 1u);
  EXPECT_EQ(resend[0].second, lost[0].second) << "cumulative, not a delta";
  const auto& ref = resend[0].first;
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, resend[0].second),
            Machine::ReleaseResult::kReclaimed);
  EXPECT_EQ(owner.live_exports(), 0u);
}

TEST(Fault, DuplicatedAndReorderedRelsReclaimExactlyOnce) {
  Machine owner("owner", 0, 0);
  Machine peer("peer", 1, 0);
  const std::uint32_t ch = owner.new_channel();
  ship(owner, ch, peer);
  peer.gc();
  const auto first = peer.take_pending_releases();
  ASSERT_EQ(first.size(), 1u);
  const auto [ref, cum1] = first[0];

  ship(owner, ch, peer);  // a second handle for the same entry
  peer.gc();
  const auto second = peer.take_pending_releases();
  ASSERT_EQ(second.size(), 1u);
  const std::uint64_t cum2 = second[0].second;

  // Adversarial delivery order: newest, then a duplicate of it, then the
  // stale older total, then the newest again.
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum2),
            Machine::ReleaseResult::kReclaimed);
  for (const std::uint64_t cum : {cum2, cum1, cum2})
    EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum),
              Machine::ReleaseResult::kStale);
  EXPECT_EQ(owner.live_exports(), 0u);
  EXPECT_EQ(owner.gc_stats().exports_reclaimed, 1u) << "exactly one reclaim";
  EXPECT_GE(owner.gc_stats().rel_stale, 3u);
}

TEST(Fault, PartialDeliveryNeverReclaimsEarly) {
  // Two independent holders; only one releases. Whatever order frames
  // arrive in, the entry must survive until *all* credit is back.
  Machine owner("owner", 0, 0);
  Machine a("a", 1, 0);
  Machine b("b", 2, 0);
  const std::uint32_t ch = owner.new_channel();
  ship(owner, ch, a);
  ship(owner, ch, b);
  a.gc();
  const auto rels = a.take_pending_releases();
  ASSERT_EQ(rels.size(), 1u);
  const auto [ref, cum] = rels[0];
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 1, 0, cum),
            Machine::ReleaseResult::kApplied);
  EXPECT_EQ(owner.live_exports(), 1u) << "b's credit is still out";
  // b finally drops too — now, and only now, the entry drains.
  b.gc();
  const auto rels_b = b.take_pending_releases();
  ASSERT_EQ(rels_b.size(), 1u);
  EXPECT_EQ(owner.apply_release(ref.kind, ref.heap_id, 2, 0, rels_b[0].second),
            Machine::ReleaseResult::kReclaimed);
}

TEST(Fault, CollectGarbageTerminatesWhenCreditDiesWithASite) {
  // The client pins its imported handle in an object stored at a
  // site-global channel (its I/O port), so the credit is live — not
  // collectable — when the site crashes. That balance can never come
  // back: the final GC epoch must terminate anyway (bounded rounds),
  // keep the server's entry alive (leak-safe direction), and still
  // drain everything else.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server", "export new p in p?{ val(x, r) = r![x + 1] }");
  net.submit_source("client", "import p from server in io?(x) = p![x]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_GE(net.find_site("client")->machine().live_netrefs(), 1u)
      << "the handle is rooted at the io channel";

  net.find_site("client")->kill();
  auto rep = net.collect_garbage();
  EXPECT_LE(rep.rounds, 8u);
  EXPECT_EQ(rep.ns_ids, 0u) << "the live server still unregisters";
  EXPECT_EQ(rep.exports_live, 1u)
      << "the dead client's share is lost: the entry leaks, it never frees";
  EXPECT_GT(net.find_site("server")->machine().exports_outstanding(), 0u);
}

TEST(Fault, RelToDeadOwnerIsDroppedSafely) {
  // Sim mode defers all collection to the final epoch, so the client
  // still holds its handle when the owner crashes: the epoch's REL is
  // dropped at the dead site, and collection terminates regardless.
  Network::Config cfg;
  cfg.mode = Network::Mode::kSim;
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server", "export new p in p?{ val(x, r) = r![x + 1] }");
  net.submit_source("client",
                    "import p from server in let z = p![1] in print[z]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"2"});
  vm::Machine& client = net.find_site("client")->machine();
  ASSERT_GE(client.live_netrefs(), 1u) << "sim defers GC past run()";

  net.find_site("server")->kill();
  auto rep = net.collect_garbage();
  EXPECT_LE(rep.rounds, 8u);
  EXPECT_EQ(client.live_netrefs(), 0u) << "the REL was sent regardless";
  EXPECT_GE(net.find_site("server")->mobility().dropped, 1u)
      << "the dead owner dropped the REL";
  // The client's own reply-channel entry leaks: its releaser died with
  // the server. Leak-safe, never a premature free.
  EXPECT_EQ(client.live_exports(), 1u);
}

TEST(Fault, ThreadedDriverSurvivesDeadSite) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.timeout_ms = 5000;
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.find_site("server")->kill();
  net.submit_source("client", "print[\"still here\"]");
  auto res = net.run();
  EXPECT_FALSE(res.budget_exhausted);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"still here"});
}

// ---------------------------------------------------------------------
// Lost-REL healing (distributed GC + fault injection)
// ---------------------------------------------------------------------

/// A REL frame silently dropped by the network must not leak the owner's
/// export-table entry forever: with Config::gc_resend_ms set, sites
/// periodically retransmit their cumulative releases (idempotent at the
/// owner), so the next epoch heals the loss. The control run (resend
/// off) must keep the leak — proving the drop actually bit.
void run_with_first_rel_dropped(bool resend, Network::GcReport& rep_out,
                                std::uint64_t& dropped_out) {
  Network::Config cfg;
  cfg.gc_resend_ms = resend ? 1 : 0;
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  // transport() materialises lazily; grab it only after topology exists.
  auto& tr = dynamic_cast<net::InProcTransport&>(net.transport());
  auto first = std::make_shared<std::atomic<bool>>(true);
  tr.set_drop_filter([first](const net::Packet& p) {
    return packet_type(p.bytes) == MsgType::kRelease &&
           first->exchange(false);
  });
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x] | S[self]) } in "
                    "export new p in S[p]");
  net.submit_source("client",
                    "import p from server in new a (p![7, a] | a?(v) = 0)");
  ASSERT_TRUE(net.run().quiescent);
  ASSERT_TRUE(net.all_errors().empty());
  rep_out = net.collect_garbage();
  dropped_out = tr.dropped();
}

TEST(Fault, DroppedRelHealsWithResendTimer) {
  Network::GcReport rep;
  std::uint64_t dropped = 0;
  run_with_first_rel_dropped(/*resend=*/true, rep, dropped);
  EXPECT_GE(dropped, 1u) << "the fault fired";
  EXPECT_EQ(rep.exports_live, 0u)
      << "retransmitted cumulative REL healed the loss";
  EXPECT_EQ(rep.netrefs_live, 0u);
}

TEST(Fault, DroppedRelLeaksWithoutResend) {
  Network::GcReport rep;
  std::uint64_t dropped = 0;
  run_with_first_rel_dropped(/*resend=*/false, rep, dropped);
  EXPECT_GE(dropped, 1u) << "the fault fired";
  EXPECT_GE(rep.exports_live, 1u)
      << "without resend the dropped REL's credit is gone for good";
}

// ---------------------------------------------------------------------
// Sharded name service under faults (docs/NAMESERVICE.md)
// ---------------------------------------------------------------------

TEST(Fault, KillPrimaryShardFailsOverToReplica) {
  // The binding's owning shard primary dies after the export. The
  // follower copy (made on registration) is promoted when the failure
  // detector's kPeerDown lands: survivors keep resolving, the binding
  // is registered at exactly one primary (no double-registration), and
  // the credit ledgers still join to zero across the handoff.
  Network::Config cfg;
  cfg.ns_shards = 4;
  cfg.ns_replicas = 1;
  Network net(cfg);
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.add_site(1, "client2");

  // Pick a service name whose shard primary is a pure-NS node (2 or 3)
  // and whose follower is not the exporter's node, so the injected
  // kPeerDown reaches no app-hosting site and nothing writes credit
  // off — in-process the "dead" slice is still scraped by the audit,
  // which must therefore balance without a write-off.
  ns::ShardRouter probe(4, 1);
  std::string name;
  for (int i = 0;; ++i) {
    name = "svc" + std::to_string(i);
    const auto o = probe.owners_of("server", name);
    if (o.primary >= 2 && o.replica != 0) break;
    ASSERT_LT(i, 4096) << "no suitable name found";
  }

  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x] | S[self]) } in "
                    "export new " + name + " in S[" + name + "]");
  net.submit_source("client", "import " + name + " from server in new a (" +
                                  name + "![7, a] | a?(v) = 0)");
  auto r1 = net.run();
  ASSERT_TRUE(r1.quiescent);
  ASSERT_TRUE(net.all_errors().empty());

  ns::ShardRouter* router = net.ns_router();
  ASSERT_NE(router, nullptr);
  const auto before = router->owners_of("server", name);
  const std::uint32_t dead = before.primary;
  const std::uint32_t follower = before.replica;
  // Registration replicated the binding to exactly {primary, follower}.
  for (const auto& n : net.nodes()) {
    const bool should = n->id() == dead || n->id() == follower;
    EXPECT_EQ(n->name_service().lookup_id("server", name).has_value(), should)
        << "node " << n->id();
  }

  // Confirmed death, delivered to the follower: it promotes itself and
  // re-replicates its slice to the post-death follower.
  auto& tr = dynamic_cast<net::InProcTransport&>(net.transport());
  net::Packet down;
  down.src_node = follower;
  down.dst_node = follower;
  down.bytes = make_peer_down(dead);
  tr.send(std::move(down), 0);
  auto rf = net.run();  // pump the failover before new traffic
  EXPECT_FALSE(rf.budget_exhausted);
  EXPECT_TRUE(router->is_dead(dead));
  const auto after = router->owners_of("server", name);
  EXPECT_EQ(after.primary, follower) << "the follower was promoted";

  // A fresh import resolves from the promoted primary.
  net.submit_source("client2", "import " + name + " from server in new a (" +
                                   name + "![9, a] | a?(v) = print[v])");
  auto r2 = net.run();
  EXPECT_TRUE(r2.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client2"), std::vector<std::string>{"9"});

  // No double-registration: among survivors the binding lives at
  // exactly the promoted primary and its new follower.
  for (const auto& n : net.nodes()) {
    if (n->id() == dead) continue;
    const bool should = n->id() == after.primary || n->id() == after.replica;
    EXPECT_EQ(n->name_service().lookup_id("server", name).has_value(), should)
        << "node " << n->id();
  }
  // Credit conservation across the handoff: promoted and re-replicated
  // copies are weak (credit 0), the registration credit still sits in
  // the original slice, so the fleet audit joins to zero.
  auto audit = net.self_audit();
  EXPECT_TRUE(audit.balanced) << audit.to_text();
}

TEST(Fault, DroppedInvalidationServesStaleUntilLeaseExpiry) {
  // A rebind's kNsInvalidate frame is lost in flight. The lease cache
  // keeps serving the stale binding — but only until the lease runs
  // out, and the staleness is accounted retroactively when the next
  // authoritative lookup replaces the entry (ns_cache_stale_served).
  Network::Config cfg;
  cfg.ns_shards = 4;
  cfg.ns_replicas = 1;
  cfg.ns_lease_ms = 500;
  Network net(cfg);
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.add_site(1, "client2");
  net.add_site(1, "client3");

  // The invalidation must cross the transport to be droppable: pick a
  // name whose shard primary is not the lease holders' node.
  ns::ShardRouter probe(4, 1);
  std::string name;
  for (int i = 0;; ++i) {
    name = "svc" + std::to_string(i);
    if (probe.owners_of("server", name).primary != 1) break;
    ASSERT_LT(i, 4096) << "no suitable name found";
  }
  auto& tr = dynamic_cast<net::InProcTransport&>(net.transport());
  tr.set_drop_filter([](const net::Packet& p) {
    return packet_type(p.bytes) == MsgType::kNsInvalidate;
  });

  net.submit_source("server", "export new " + name + " in " + name +
                                  "?{ val(x, r) = r![1] }");
  net.submit_source("client", "import " + name + " from server in 0");
  ASSERT_TRUE(net.run().quiescent);
  ASSERT_TRUE(net.all_errors().empty());
  const ns::LeaseCache* cache = net.lease_cache(1);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 1u) << "the first import filled the cache";

  // Rebind: the shard pushes an invalidation to the lease holder, which
  // the network silently drops.
  net.submit_source("server", "export new " + name + " in " + name +
                                  "?{ val(x, r) = r![2] }");
  ASSERT_TRUE(net.run().quiescent);
  EXPECT_GE(tr.dropped(), 1u) << "the fault fired";
  EXPECT_EQ(cache->invalidations(), 0u) << "the invalidation never arrived";
  EXPECT_EQ(cache->size(), 1u) << "the stale entry survived";

  // Within the lease the stale binding is served from the cache...
  net.submit_source("client2", "import " + name + " from server in 0");
  ASSERT_TRUE(net.run().quiescent);
  EXPECT_GE(cache->hits(), 1u);
  EXPECT_EQ(cache->stale_served(), 0u) << "not yet known to be stale";

  // ...but not past it: the next import misses, asks the shard, and the
  // authoritative (different) ref convicts the expired entry's hits.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  net.submit_source("client3", "import " + name + " from server in 0");
  ASSERT_TRUE(net.run().quiescent);
  EXPECT_GE(cache->misses(), 2u) << "the expired entry was not served";
  EXPECT_GE(cache->stale_served(), 1u)
      << "the dropped invalidation's stale hits are accounted";
}

}  // namespace
}  // namespace dityco::core
