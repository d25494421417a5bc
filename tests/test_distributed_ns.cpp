// Tests for the name service as the network runs it: every node owns a
// slice of the directory and sites route lookups and exports to the
// key's shard owner. Whole programs (RPC, lookup before export, code
// fetching, many importers, the threaded and simulated drivers, GC
// drain) run over one shard (the default: node 0 serves every key, the
// paper's centralised service) and four (per-key routing, follower
// replication); plus the default-config packet count and frames whose
// key has no live owner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/network.hpp"
#include "ns/shard.hpp"

namespace dityco {
namespace {

using core::Network;

const char* const kRpc =
    "site server { export new p in p?{ val(x, rep) = rep![x * 2] } }\n"
    "site client { import p from server in let z = p![21] in print[z] }";

class NsShards : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  // Four nodes, the server on node 0 and the client on node 1.
  Network net(Network::Mode mode = Network::Mode::kSequential) {
    Network::Config cfg;
    cfg.mode = mode;
    cfg.ns_shards = GetParam();
    cfg.ns_replicas = 1;
    Network n(cfg);
    for (int i = 0; i < 4; ++i) n.add_node();
    n.add_site(0, "server");
    n.add_site(1, "client");
    return n;
  }
};

INSTANTIATE_TEST_SUITE_P(OneAndFour, NsShards, ::testing::Values(1u, 4u));

TEST_P(NsShards, RpcWorks) {
  auto net = this->net();
  net.submit_network_source(kRpc);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"});
  ASSERT_NE(net.ns_router(), nullptr);
  EXPECT_EQ(net.ns_router()->shards(), GetParam());
  // The binding lives on exactly one primary (credit holder) and, with
  // more than one shard, one follower (weak copy).
  const std::uint32_t prim = net.ns_router()->primary_of("server", "p");
  const std::uint32_t repl = net.ns_router()->replica_of("server", "p");
  if (GetParam() == 1) {
    EXPECT_EQ(prim, 0u);
    EXPECT_EQ(repl, ns::ShardRouter::kNoNode);
  }
  for (const auto& n : net.nodes())
    EXPECT_EQ(n->name_service().lookup_id("server", "p").has_value(),
              n->id() == prim || n->id() == repl)
        << "node " << n->id();
}

TEST_P(NsShards, LookupBeforeExportParksAtOwningShard) {
  auto net = this->net();
  net.submit_source("client",
                    "import p from server in let z = p![1] in print[z]");
  auto r1 = net.run();
  EXPECT_TRUE(r1.stalled);
  const std::uint32_t prim = net.ns_router()->primary_of("server", "p");
  EXPECT_EQ(net.nodes()[prim]->name_service().parked(), 1u);
  // The export releases the lookup parked at the owning slice.
  net.submit_source("server",
                    "export new p in p?{ val(x, rep) = rep![x + 1] }");
  auto r2 = net.run();
  EXPECT_TRUE(r2.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"2"});
}

TEST_P(NsShards, CodeFetchingWorks) {
  auto net = this->net();
  net.submit_network_source(
      "site server { export def Applet(out) = out![7] in 0 }\n"
      "site client { import Applet from server in "
      "new p (Applet[p] | p?(v) = print[v]) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"7"});
}

TEST_P(NsShards, SixImportersAllServed) {
  Network::Config cfg;
  cfg.ns_shards = GetParam();
  Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  const int clients = 6;
  for (int i = 0; i < clients; ++i) {
    net.add_node();
    net.add_site(static_cast<std::size_t>(i) + 1, "c" + std::to_string(i));
  }
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x * x] | S[self]) "
                    "} in export new sq in S[sq]");
  for (int i = 0; i < clients; ++i)
    net.submit_source("c" + std::to_string(i),
                      "import sq from server in let z = sq![" +
                          std::to_string(i + 2) + "] in print[z]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  for (int i = 0; i < clients; ++i)
    EXPECT_EQ(net.output("c" + std::to_string(i)),
              std::vector<std::string>{std::to_string((i + 2) * (i + 2))});
}

TEST_P(NsShards, ThreadedDriverWorks) {
  auto net = this->net(Network::Mode::kThreaded);
  net.submit_network_source(kRpc);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"});
}

TEST_P(NsShards, SimDriverQuiesces) {
  auto net = this->net(Network::Mode::kSim);
  net.submit_network_source(kRpc);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"});
  EXPECT_GT(res.virtual_time_us, 0.0);
}

TEST(NsShard, DefaultRpcPacketCount) {
  // Default config: one shard, so node 0 answers every key and the
  // server's export stays on-node. The wire carries the client's lookup
  // and its reply, the call and its answer, and one GC REL each way.
  Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_network_source(kRpc);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.packets, 6u);
}

// Every shard owner confirmed dead: a directory frame has nowhere to go.
// The sending site drops it (counted, no work token held), so the run
// ends stalled on the parked import instead of sending to a node that
// does not exist.
class NsDeadOwner : public ::testing::TestWithParam<Network::Mode> {};

INSTANTIATE_TEST_SUITE_P(Drivers, NsDeadOwner,
                         ::testing::Values(Network::Mode::kSequential,
                                           Network::Mode::kThreaded));

TEST_P(NsDeadOwner, FramesWithNoLiveOwnerAreDropped) {
  Network::Config cfg;
  cfg.mode = GetParam();
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.ns_router()->note_dead(0);
  net.submit_network_source(
      "site server { export new p in 0 }\n"
      "site client { import p from server in let z = p![1] in print[z] }");
  Network::Result res;
  ASSERT_NO_THROW(res = net.run());
  EXPECT_TRUE(res.stalled);
  EXPECT_FALSE(res.budget_exhausted);
  EXPECT_EQ(res.packets, 0u);
  EXPECT_EQ(net.find_site("server")->mobility().ns_dropped.value(), 1u);
  EXPECT_EQ(net.find_site("client")->mobility().ns_dropped.value(), 1u);
  EXPECT_TRUE(net.output("client").empty());
}

TEST_P(NsShards, GcDrainsEveryShardSlice) {
  auto net = this->net();
  net.submit_network_source(
      "site server { export new p in p?{ val(x, rep) = rep![x * 2] } }\n"
      "site client { import p from server in let z = p![21] in print[z] }");
  EXPECT_TRUE(net.run().quiescent);
  auto rep = net.collect_garbage();
  EXPECT_EQ(rep.ns_ids, 0u);        // primaries and follower copies
  EXPECT_EQ(rep.exports_live, 0u);
  EXPECT_EQ(rep.netrefs_live, 0u);
  // Audit over the shard scopes balances.
  EXPECT_TRUE(net.self_audit().balanced);
}

}  // namespace
}  // namespace dityco
