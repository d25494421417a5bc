// Integration tests for the DiTyCO distribution runtime: the paper's
// examples running across sites and nodes, marshalling, the name
// service, FETCH caching, and agreement between the three drivers.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/network.hpp"
#include "core/wire.hpp"

namespace dityco::core {
namespace {

using Mode = Network::Mode;

/// Standard 2-node / 2-site topology: "server" on node 0, "client" on 1.
Network two_nodes(Mode mode = Mode::kSequential) {
  Network::Config cfg;
  cfg.mode = mode;
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  return net;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------
// The paper's examples, end to end over the byte-code runtime
// ---------------------------------------------------------------------

TEST(Core, RemoteProcedureCall) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export new p in p?{ val(x, rep) = rep![x * 2] } }\n"
      "site client { import p from server in let z = p![21] in print[z] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent) << "stalled=" << res.stalled;
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"});
  // SHIPM there, SHIPM back.
  EXPECT_EQ(net.find_site("client")->mobility().msgs_shipped, 1u);
  EXPECT_EQ(net.find_site("server")->mobility().msgs_shipped, 1u);
}

TEST(Core, ClientSubmittedBeforeServer) {
  // The name service parks the lookup until the export arrives.
  auto net = two_nodes();
  net.submit_source("client",
                    "import p from server in let z = p![21] in print[z]");
  net.submit_source("server",
                    "export new p in p?{ val(x, rep) = rep![x * 2] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"});
}

TEST(Core, AppletServerCodeFetching) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export def Applet(out) = out![7] in 0 }\n"
      "site client { import Applet from server in "
      "new p (Applet[p] | p?(v) = print[v]) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"7"});
  EXPECT_EQ(net.find_site("client")->mobility().fetch_requests, 1u);
  EXPECT_EQ(net.find_site("server")->mobility().fetch_served, 1u);
}

TEST(Core, FetchedCodeKeepsLexicalBindings) {
  // The σ discipline: the applet body's free name `log` stays bound to
  // the server's channel after the code moves.
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export new log in "
      "(log?(m) = print[m] | export def Applet() = log![\"ran\"] in 0) }\n"
      "site client { import Applet from server in Applet[] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"ran"});
  EXPECT_TRUE(net.output("client").empty());
}

TEST(Core, AppletServerCodeShipping) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { def AppletServer(self) = self?{ "
      "applet(p) = (p?(x) = print[x * 2] | AppletServer[self]) } in "
      "export new appletserver in AppletServer[appletserver] }\n"
      "site client { import appletserver from server in "
      "new p (appletserver!applet[p] | p![21]) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"42"})
      << "shipped applet reduces at the client";
  EXPECT_EQ(net.find_site("server")->mobility().objs_shipped, 1u);
  EXPECT_EQ(net.find_site("client")->mobility().objs_received, 1u);
}

TEST(Core, SetiExample) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { new database ("
      "  def Db(self, n) = self?{ newChunk(r) = (r![n] | Db[self, n + 1]) } "
      "  in Db[database, 0] "
      "  | export def Install() = print[\"installed\"]; Go[0] "
      "    and Go(i) = if i == 3 then print[\"done\"] "
      "                else let d = database!newChunk[] in "
      "                     print[\"chunk\", d]; Go[i + 1] "
      "    in 0) }\n"
      "site client { import Install from server in Install[] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty()) << net.all_errors()[0];
  EXPECT_EQ(net.output("client"),
            (std::vector<std::string>{"installed", "chunk 0", "chunk 1",
                                      "chunk 2", "done"}));
  // Install[] is one FETCH; Go is in the same definition block and the
  // sibling instantiations happen locally at the client thereafter.
  EXPECT_EQ(net.find_site("client")->mobility().fetch_requests, 1u);
}

TEST(Core, ObjectMigratesToImportedName) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export new x in x![10] }\n"
      "site client { import x from server in x?(v) = print[v + 1] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"11"})
      << "the object migrated to the server and reduced there";
  EXPECT_EQ(net.find_site("client")->mobility().objs_shipped, 1u);
}

TEST(Core, ChannelsTravelAndComeHome) {
  // A channel sent away and back must localise to the same heap object
  // (export-table round trip, netref pass-through at third parties).
  Network net;
  net.add_node();
  net.add_node();
  net.add_node();
  net.add_site(0, "a");
  net.add_site(1, "b");
  net.add_site(2, "c");
  net.submit_network_source(
      "site a { export new home in (home?(v) = print[v] | "
      "import fwd from b in fwd!pass[home, 5]) }\n"
      "site b { export new fwd in fwd?{ pass(ch, v) = "
      "(import sink from c in sink!dump[ch, v + 1]) } }\n"
      "site c { export new sink in sink?{ dump(ch, v) = ch![v * 10] } }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("a"), std::vector<std::string>{"60"});
}

TEST(Core, TwoSitesSameNodeUseSharedMemoryPath) {
  Network net;
  net.add_node();
  net.add_site(0, "server");
  net.add_site(0, "client");
  net.submit_network_source(
      "site server { export new p in p?{ val(x, rep) = rep![x + 1] } }\n"
      "site client { import p from server in let z = p![1] in print[z] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"2"});
  EXPECT_EQ(res.packets, 0u)
      << "same-node interactions must bypass the transport";
}

TEST(Core, ManyClientsOneServer) {
  Network net;
  net.add_node();
  net.add_site(0, "server");
  std::vector<std::string> clients;
  for (int i = 0; i < 8; ++i) {
    net.add_node();
    clients.push_back("c" + std::to_string(i));
    net.add_site(1 + static_cast<std::size_t>(i), clients.back());
  }
  net.submit_source("server",
                    "def Serve(self) = self?{ val(x, rep) = (rep![x * x] | "
                    "Serve[self]) } in export new sq in Serve[sq]");
  for (int i = 0; i < 8; ++i)
    net.submit_source(clients[static_cast<std::size_t>(i)],
                      "import sq from server in let z = sq![" +
                          std::to_string(i + 2) + "] in print[z]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(net.output(clients[static_cast<std::size_t>(i)]),
              std::vector<std::string>{std::to_string((i + 2) * (i + 2))});
}

// ---------------------------------------------------------------------
// FETCH caching (dynamic linking) and its ablation
// ---------------------------------------------------------------------

TEST(Core, ConcurrentFetchesCoalesceIntoOneRequest) {
  // Three instantiations race before the code arrives: one FETCH round
  // trip serves all of them (pending-instantiation table).
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export def A(out) = out![1] in 0 }\n"
      "site client { import A from server in "
      "new p (A[p] | A[p] | A[p] | p?(a) = p?(b) = p?(c) = print[a + b + c]) "
      "}");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"3"});
  const auto& mob = net.find_site("client")->mobility();
  EXPECT_EQ(mob.fetch_requests, 1u) << "code downloaded once";
  EXPECT_EQ(net.find_site("server")->mobility().fetch_served, 1u);
}

TEST(Core, FetchCacheAvoidsRefetch) {
  // Sequential re-instantiation after the code arrived: served from the
  // dynamic-link cache, no second round trip.
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export def A(out) = out![1] in 0 }\n"
      "site client { import A from server in "
      "new p (A[p] | p?(a) = (print[a] | A[p] | p?(b) = print[b])) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), (std::vector<std::string>{"1", "1"}));
  const auto& mob = net.find_site("client")->mobility();
  EXPECT_EQ(mob.fetch_requests, 1u);
  EXPECT_EQ(mob.fetch_cache_hits, 1u);
}

TEST(Core, FetchCacheDisabledRefetches) {
  auto net = two_nodes();
  net.find_site("client")->set_fetch_cache_enabled(false);
  net.submit_network_source(
      "site server { export def A(out) = out![1] in 0 }\n"
      "site client { import A from server in "
      "new p (A[p] | p?(a) = (print[a] | A[p] | p?(b) = print[b])) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), (std::vector<std::string>{"1", "1"}));
  EXPECT_EQ(net.find_site("client")->mobility().fetch_requests, 2u);
}

TEST(Core, ShippedCodeLinkedOncePerSite) {
  // The same object segment shipped twice must not be re-linked: the GUID
  // dedup in Machine::link is the paper's dynamic-link cache.
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export new x, y in (x![1] | y![2]) }\n"
      "site client { import x from server in import y from server in "
      "def Probe(c) = c?(v) = print[v] in (Probe[x] | Probe[y]) }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(sorted(net.output("server")),
            (std::vector<std::string>{"1", "2"}));
}

// ---------------------------------------------------------------------
// Name service behaviour
// ---------------------------------------------------------------------

TEST(Core, StallOnMissingExport) {
  auto net = two_nodes();
  net.submit_source("client", "import ghost from server in ghost![1]");
  auto res = net.run();
  EXPECT_FALSE(res.quiescent);
  EXPECT_TRUE(res.stalled);
  EXPECT_EQ(net.name_service().parked(), 1u);
}

TEST(Core, StallResolvedByLaterSubmission) {
  auto net = two_nodes();
  net.submit_source("client", "import p from server in p?(v) = print[v]");
  auto r1 = net.run();
  EXPECT_TRUE(r1.stalled);
  net.submit_source("server", "export new p in p![9]");
  auto r2 = net.run();
  EXPECT_TRUE(r2.quiescent);
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"9"});
}

TEST(Core, KindMismatchRejectedByNameService) {
  // The surface syntax cannot express this (case separates names from
  // class variables), so exercise the protocol check directly: an entry
  // exported as a channel must not satisfy a class lookup.
  NameService ns(0);
  std::vector<net::Packet> replies;
  ns.register_id("server", "x",
                 vm::NetRef{vm::NetRef::Kind::kChan, 0, 0, 1}, "", replies,
                 /*credit=*/vm::kMintCredit);
  {
    const auto lookup = net::Packet::parse(
        1, 0,
        NameService::make_lookup("server", "x", vm::NetRef::Kind::kClass, 1,
                                 0, 77));
    Reader r(lookup.payload());
    ns.handle_lookup(r, replies);
  }
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].hdr.type, MsgType::kNsReply);
  Reader r(replies[0].payload());
  EXPECT_EQ(r.u64(), 77u);  // token
  EXPECT_FALSE(r.boolean()) << "kind mismatch must be flagged not-ok";
  EXPECT_EQ(read_netref(r).kind, vm::NetRef::Kind::kChan);
  EXPECT_EQ(r.str(), "");  // type signature
  EXPECT_EQ(r.u64(), 0u) << "a failed reply hands out no credit";
  EXPECT_TRUE(r.done());
}

TEST(Core, NameServiceStats) {
  auto net = two_nodes();
  net.submit_network_source(
      "site server { export new a, b in 0 }\n"
      "site client { import a from server in import b from server in 0 }");
  net.run();
  EXPECT_EQ(net.name_service().stats().exports, 2u);
  EXPECT_EQ(net.name_service().stats().lookups, 2u);
  EXPECT_EQ(net.name_service().stats().replies, 2u);
}

TEST(Core, TypeSignatureMismatchDetected) {
  auto net = two_nodes();
  net.find_site("server")->set_export_signature("p", "![int]");
  net.find_site("client")->expect_import_signature("server", "p", "![bool]");
  net.submit_network_source(
      "site server { export new p in 0 }\n"
      "site client { import p from server in p![1] }");
  auto res = net.run();
  EXPECT_TRUE(res.stalled);
  auto errs = net.all_errors();
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("type mismatch"), std::string::npos);
}

TEST(Core, TypeSignatureMatchProceeds) {
  auto net = two_nodes();
  net.find_site("server")->set_export_signature("p", "![int]");
  net.find_site("client")->expect_import_signature("server", "p", "![int]");
  net.submit_network_source(
      "site server { export new p in p?(v) = print[v] }\n"
      "site client { import p from server in p![1] }");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"1"});
}

// ---------------------------------------------------------------------
// Drivers agree
// ---------------------------------------------------------------------

const char* kDriverProgram =
    "site server { export new p in "
    "def Serve(self) = self?{ val(x, rep) = (rep![x * 2] | Serve[self]) } "
    "in Serve[p] }\n"
    "site client { import p from server in "
    "let a = p![1] in let b = p![a] in let c = p![b] in print[c] }";

TEST(Core, SequentialDriver) {
  auto net = two_nodes(Mode::kSequential);
  net.submit_network_source(kDriverProgram);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"8"});
}

TEST(Core, ThreadedDriver) {
  auto net = two_nodes(Mode::kThreaded);
  net.submit_network_source(kDriverProgram);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"8"});
}

TEST(Core, SimDriver) {
  auto net = two_nodes(Mode::kSim);
  net.submit_network_source(kDriverProgram);
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"8"});
  EXPECT_GT(res.virtual_time_us, 0.0);
}

TEST(Core, SimMyrinetFasterThanEthernet) {
  // Three chained RPCs: the Fast-Ethernet cluster must take longer in
  // virtual time (the shape claim behind the paper's platform choice).
  double t_myri = 0, t_eth = 0;
  {
    Network::Config cfg;
    cfg.mode = Mode::kSim;
    cfg.link = net::myrinet();
    Network net(cfg);
    net.add_node();
    net.add_node();
    net.add_site(0, "server");
    net.add_site(1, "client");
    net.submit_network_source(kDriverProgram);
    t_myri = net.run().virtual_time_us;
  }
  {
    Network::Config cfg;
    cfg.mode = Mode::kSim;
    cfg.link = net::fast_ethernet();
    Network net(cfg);
    net.add_node();
    net.add_node();
    net.add_site(0, "server");
    net.add_site(1, "client");
    net.submit_network_source(kDriverProgram);
    t_eth = net.run().virtual_time_us;
  }
  EXPECT_GT(t_eth, t_myri);
}

TEST(Core, BudgetExhaustionReported) {
  Network::Config cfg;
  cfg.max_instructions = 10'000;
  Network net(cfg);
  net.add_node();
  net.add_site(0, "main");
  net.submit_source("main", "def Loop(n) = Loop[n + 1] in Loop[0]");
  auto res = net.run();
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_FALSE(res.quiescent);
}

// ---------------------------------------------------------------------
// Marshalling round trips
// ---------------------------------------------------------------------

TEST(Marshal, ScalarRoundTrip) {
  vm::Machine a("a", 0, 0), b("b", 1, 0);
  Writer w;
  marshal_value(a, vm::Value::make_int(-7), w);
  marshal_value(a, vm::Value::make_bool(true), w);
  marshal_value(a, vm::Value::make_float(2.5), w);
  marshal_value(a, vm::Value::make_str(a.intern_string("hi")), w);
  Reader r(w.data());
  EXPECT_EQ(unmarshal_value(b, r).i, -7);
  EXPECT_TRUE(unmarshal_value(b, r).b);
  EXPECT_EQ(unmarshal_value(b, r).f, 2.5);
  auto s = unmarshal_value(b, r);
  EXPECT_EQ(b.str(s.idx), "hi");
  EXPECT_TRUE(r.done());
}

TEST(Marshal, ChannelBecomesNetRefAndLocalises) {
  vm::Machine a("a", 0, 0), b("b", 1, 0);
  const std::uint32_t ch = a.new_channel();
  Writer w;
  marshal_value(a, vm::Value::make_chan(ch), w);
  // At b: a foreign netref.
  Reader r1(w.data());
  auto at_b = unmarshal_value(b, r1);
  ASSERT_EQ(at_b.tag, vm::Value::Tag::kNetRef);
  EXPECT_EQ(b.netref(at_b.idx).node, 0u);
  // Send it back: it must localise to the same channel at a.
  Writer w2;
  marshal_value(b, at_b, w2);
  Reader r2(w2.data());
  auto home = unmarshal_value(a, r2);
  ASSERT_EQ(home.tag, vm::Value::Tag::kChan);
  EXPECT_EQ(home.idx, ch);
}

TEST(Marshal, ExportTableIsIdempotent) {
  vm::Machine a("a", 0, 0);
  const std::uint32_t ch = a.new_channel();
  EXPECT_EQ(a.export_chan(ch), a.export_chan(ch))
      << "re-export must reuse the HeapId";
}

TEST(Marshal, ForgedHeapIdRejected) {
  vm::Machine a("a", 0, 0);
  EXPECT_THROW(a.resolve_exported_chan(424242), DecodeError);
}

}  // namespace
}  // namespace dityco::core
