// Tests for src/ns and its core hooks: the rendezvous shard map's
// determinism and minimal-movement property, the lease cache's
// hit/expiry/invalidation and retroactive stale accounting, lease-cache
// serving on repeat imports, invalidation pushes on rebind, and the
// /names sharding block. Whole programs over one and four shards are in
// test_distributed_ns.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "ns/cache.hpp"
#include "ns/shard.hpp"

namespace dityco {
namespace {

using core::Network;

// -- ShardRouter ------------------------------------------------------

TEST(ShardRouter, DeterministicAndSpread) {
  ns::ShardRouter a(8), b(8);
  std::set<std::uint32_t> primaries;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "k" + std::to_string(i);
    const auto oa = a.owners_of("s", name);
    const auto ob = b.owners_of("s", name);
    EXPECT_EQ(oa.primary, ob.primary);
    EXPECT_EQ(oa.replica, ob.replica);
    EXPECT_LT(oa.primary, 8u);
    EXPECT_LT(oa.replica, 8u);
    EXPECT_NE(oa.primary, oa.replica);
    primaries.insert(oa.primary);
  }
  // 200 keys over 8 shards: every shard owns some.
  EXPECT_EQ(primaries.size(), 8u);
}

TEST(ShardRouter, NoReplicasRequested) {
  ns::ShardRouter r(4, /*replicas=*/0);
  EXPECT_EQ(r.owners_of("s", "k").replica, ns::ShardRouter::kNoNode);
  EXPECT_NE(r.owners_of("s", "k").primary, ns::ShardRouter::kNoNode);
}

TEST(ShardRouter, DeathMovesOnlyTheDeadNodesKeys) {
  ns::ShardRouter before(8), after(8);
  ASSERT_TRUE(after.note_dead(3));
  EXPECT_FALSE(after.note_dead(3));  // idempotent
  EXPECT_EQ(after.epoch(), 1u);
  for (int i = 0; i < 300; ++i) {
    const std::string name = "key" + std::to_string(i);
    const auto old = before.owners_of("s", name);
    const auto now = after.owners_of("s", name);
    EXPECT_NE(now.primary, 3u);
    EXPECT_NE(now.replica, 3u);
    if (old.primary != 3u) {
      // HRW: removal of another member never moves this key's primary.
      EXPECT_EQ(now.primary, old.primary);
    } else {
      // The dead primary's keys promote to their old replica.
      EXPECT_EQ(now.primary, old.replica);
    }
  }
}

TEST(ShardRouter, MergeDeadIsAdvisoryButMovesTheMap) {
  ns::ShardRouter r(4);
  const std::uint64_t g0 = r.generation();
  EXPECT_TRUE(r.merge_dead({2}));
  EXPECT_FALSE(r.merge_dead({2}));
  EXPECT_TRUE(r.is_dead(2));
  EXPECT_GT(r.generation(), g0);
  EXPECT_EQ(r.dead(), std::vector<std::uint32_t>{2});
}

TEST(ShardRouter, GrowOnlyRaisesTheShardCount) {
  ns::ShardRouter r(1);
  EXPECT_EQ(r.primary_of("s", "k"), 0u);
  r.grow(4);
  EXPECT_EQ(r.shards(), 4u);
  r.grow(2);
  EXPECT_EQ(r.shards(), 4u);
  EXPECT_EQ(r.primary_of("s", "k"), ns::ShardRouter(4).primary_of("s", "k"));
}

// -- LeaseCache -------------------------------------------------------

vm::NetRef ref_on(std::uint32_t node, std::uint64_t heap_id) {
  vm::NetRef r;
  r.node = node;
  r.site = 0;
  r.heap_id = heap_id;
  return r;
}

TEST(LeaseCache, HitWithinLeaseMissAfter) {
  ns::LeaseCache c(/*lease_ns=*/1000);
  vm::NetRef out;
  std::string sig;
  EXPECT_FALSE(c.lookup("s", "p", vm::NetRef::Kind::kChan, 0, out, sig));
  c.store("s", "p", ref_on(2, 7), "sig", /*now_ns=*/100);
  EXPECT_TRUE(c.lookup("s", "p", vm::NetRef::Kind::kChan, 500, out, sig));
  EXPECT_EQ(out.node, 2u);
  EXPECT_EQ(sig, "sig");
  // Expired at now >= expires.
  EXPECT_FALSE(c.lookup("s", "p", vm::NetRef::Kind::kChan, 1100, out, sig));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(LeaseCache, KindMismatchIsAMiss) {
  ns::LeaseCache c(1000);
  c.store("s", "p", ref_on(1, 1), "sig", 0);
  vm::NetRef out;
  std::string sig;
  EXPECT_FALSE(c.lookup("s", "p", vm::NetRef::Kind::kClass, 10, out, sig));
}

TEST(LeaseCache, InvalidationDropsEntry) {
  ns::LeaseCache c(1000);
  c.store("s", "p", ref_on(1, 1), "", 0);
  c.store("s", "q", ref_on(2, 2), "", 0);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.invalidate("s", "p"), 1u);
  EXPECT_EQ(c.invalidate("s", "p"), 0u);
  EXPECT_EQ(c.invalidate_node(2), 1u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.invalidations(), 1u);
  EXPECT_EQ(c.evictions(), 2u);
}

TEST(LeaseCache, StaleHitsAccountedRetroactively) {
  ns::LeaseCache c(1000);
  vm::NetRef out;
  std::string sig;
  c.store("s", "p", ref_on(1, 1), "", 0);
  // Three hits served off this lease...
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(c.lookup("s", "p", vm::NetRef::Kind::kChan, 10 + i, out, sig));
  // ...then the authoritative store reveals the binding changed: those
  // hits are counted stale after the fact.
  c.store("s", "p", ref_on(1, 99), "", 500);
  EXPECT_EQ(c.stale_served(), 3u);
  // A same-ref refresh does not count its hits stale.
  EXPECT_TRUE(c.lookup("s", "p", vm::NetRef::Kind::kChan, 600, out, sig));
  c.store("s", "p", ref_on(1, 99), "", 700);
  EXPECT_EQ(c.stale_served(), 3u);
}

// -- End-to-end over four shards: lease cache and /names -------------

Network shard_net(std::uint64_t lease_ms) {
  Network::Config cfg;
  cfg.ns_shards = 4;
  cfg.ns_replicas = 1;
  cfg.ns_lease_ms = lease_ms;
  Network net(cfg);
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  return net;
}

TEST(NsShard, RepeatImportServedFromLeaseCache) {
  auto net = shard_net(/*lease_ms=*/60'000);
  net.add_site(1, "client2");  // same node as "client": shares its cache
  net.submit_network_source(
      "site server { export new p in p?{ val(x, rep) = (rep![x * 2] | "
      "p?{ val(y, r2) = r2![y * 2] }) } }\n"
      "site client { import p from server in let z = p![21] in print[z] }");
  EXPECT_TRUE(net.run().quiescent);
  ASSERT_NE(net.lease_cache(1), nullptr);
  EXPECT_EQ(net.lease_cache(1)->hits(), 0u);
  EXPECT_GE(net.lease_cache(1)->misses(), 1u);
  EXPECT_EQ(net.lease_cache(1)->size(), 1u);
  // Second import of the same binding from the same node: no wire
  // lookup, the cache answers.
  net.submit_source("client2",
                    "import p from server in let z = p![5] in print[z]");
  EXPECT_TRUE(net.run().quiescent);
  EXPECT_EQ(net.output("client2"), std::vector<std::string>{"10"});
  EXPECT_EQ(net.lease_cache(1)->hits(), 1u);
}

TEST(NsShard, RebindPushesInvalidationToLeaseHolders) {
  auto net = shard_net(/*lease_ms=*/60'000);
  net.submit_network_source(
      "site server { export new p in 0 }\n"
      "site client { import p from server in 0 }");
  EXPECT_TRUE(net.run().quiescent);
  ASSERT_NE(net.lease_cache(1), nullptr);
  ASSERT_EQ(net.lease_cache(1)->size(), 1u);
  // Rebinding the name to a fresh channel must invalidate the client
  // node's cached entry.
  net.submit_source("server", "export new p in 0");
  EXPECT_TRUE(net.run().quiescent);
  EXPECT_EQ(net.lease_cache(1)->size(), 0u);
  EXPECT_GE(net.lease_cache(1)->invalidations(), 1u);
}

TEST(NsShard, NamesJsonReportsShardingAndCaches) {
  auto net = shard_net(/*lease_ms=*/60'000);
  net.submit_network_source(
      "site server { export new p in 0 }\n"
      "site client { import p from server in 0 }");
  EXPECT_TRUE(net.run().quiescent);
  const std::string j = net.names_json();
  EXPECT_NE(j.find("\"sharding\""), std::string::npos);
  EXPECT_NE(j.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(j.find("\"caches\""), std::string::npos);
  EXPECT_NE(j.find("shard0"), std::string::npos);
}

}  // namespace
}  // namespace dityco
