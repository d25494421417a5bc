// Protocol-level tests for the TyCOd daemon (Node) and the name-service
// packet formats: header parsing, routing to sites, unroutable frames,
// the same-node direct handoff, direct delivery between nodes, and NS
// request/reply framing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "core/network.hpp"
#include "core/node.hpp"
#include "core/wire.hpp"
#include "ns/shard.hpp"

namespace dityco::core {
namespace {

net::Packet ship_msg_packet(std::uint32_t src_node, std::uint32_t dst_node,
                            std::uint32_t dst_site, std::uint64_t heap_id,
                            const std::string& label) {
  Writer w;
  write_header(w, MsgType::kShipMsg, dst_site);
  w.u64(heap_id);
  w.str(label);
  w.u32(0);  // zero arguments
  return net::Packet::parse(src_node, dst_node, w.take());
}

TEST(NodeRouting, HeaderParsing) {
  auto p = ship_msg_packet(0, 1, 7, 42, "go");
  EXPECT_EQ(p.hdr.dst_site, 7u);
  EXPECT_FALSE(p.hdr.for_daemon());

  const auto q = net::Packet::parse(
      0, 0,
      NameService::make_lookup("s", "x", vm::NetRef::Kind::kChan, 0, 0, 1));
  EXPECT_TRUE(q.hdr.for_daemon());
  EXPECT_EQ(q.hdr.dst_site, 0xffffffffu);
}

TEST(NodeRouting, ShortPacketRejected) {
  EXPECT_THROW(net::Packet::parse(0, 0, {1, 2}), DecodeError);
  EXPECT_THROW(net::Packet::parse(0, 0, {}), DecodeError);
}

TEST(NodeRouting, RoutesToCorrectSite) {
  ns::ShardRouter router(1);
  Node node(0, router);
  Site& a = node.add_site("a");
  Site& b = node.add_site("b");
  net::InProcTransport t(1);
  node.route(ship_msg_packet(0, 0, 1, 1, "go"), t, 0);
  EXPECT_EQ(a.incoming_size(), 0u);
  EXPECT_EQ(b.incoming_size(), 1u);
}

TEST(NodeRouting, UnknownSiteDroppedAndCounted) {
  ns::ShardRouter router(1);
  Node node(0, router);
  Site& only = node.add_site("only");
  net::InProcTransport t(1);
  EXPECT_NO_THROW(node.route(ship_msg_packet(0, 0, 5, 1, "go"), t, 0));
  EXPECT_EQ(node.frames_malformed(), 1u);
  EXPECT_EQ(only.incoming_size(), 0u);
}

bool has_error(const Network& net, const std::string& what) {
  const auto errs = net.all_errors();
  return std::any_of(errs.begin(), errs.end(), [&](const std::string& e) {
    return e.find(what) != std::string::npos;
  });
}

// Queue at `server` (which exports `p`) a SHIPM p![k] whose argument k
// is the reference `forged`, as if a peer had shipped it.
void push_forged_ship(Network& net, Site& server, const vm::NetRef& forged) {
  const auto p = net.name_service().lookup_id("server", "p");
  ASSERT_TRUE(p.has_value());
  vm::Machine forger("forger");
  Writer w;
  write_header(w, MsgType::kShipMsg, p->site);
  w.u64(p->heap_id);
  w.str("val");
  marshal_values(
      forger, {vm::Value::make_netref(forger.intern_netref_credit(forged, 0))},
      w);
  server.push_incoming(net::Packet::parse(0, 0, w.take()));
}

// A transport frame with a valid header that the daemon still cannot
// route is dropped at the route boundary, its work token released and
// the drop counted: the daemon thread must not die on it, and the
// threaded run must still terminate exactly. With tracing on, the
// daemon also records each arrival's trace bits before routing it. (A
// frame whose header does not parse never becomes a Packet: see
// test_tcp's TcpTransport.UndecodablePacketHeaderDropsConnection.)
TEST(NodeRouting, UnroutableTransportFramesAreDropped) {
  for (const bool traced : {false, true}) {
    for (const auto mode : {Network::Mode::kSequential,
                            Network::Mode::kThreaded, Network::Mode::kSim}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   (traced ? ", traced" : ""));
      Network::Config cfg;
      cfg.mode = mode;
      cfg.timeout_ms = 10'000;
      Network net(cfg);
      net.add_node();
      net.add_site(0, "only");
      if (traced) net.enable_tracing(1 << 10);
      net::Transport& t = net.transport();
      // SHIPM to site 127.
      t.send(net::Packet::parse(0, 0, {1, 0x7f, 0, 0, 0}), 0);
      // NS lookup whose key claims 9 bytes but carries 1.
      t.send(net::Packet::parse(0, 0,
                                {6, 0xff, 0xff, 0xff, 0xff, 9, 0, 0, 0, 's'}),
             0);
      Network::Result res;
      EXPECT_NO_THROW(res = net.run());
      EXPECT_FALSE(res.budget_exhausted);
      EXPECT_EQ(net.nodes()[0]->frames_malformed(), 2u);
      EXPECT_EQ(t.in_flight(), 0u);
      EXPECT_FALSE(has_error(net, "stopped early"));
      // The node still serves its site.
      net.submit_source("only", "print[\"alive\"]");
      EXPECT_FALSE(net.run().budget_exhausted);
      EXPECT_EQ(net.output("only"), std::vector<std::string>{"alive"});
    }
  }
}

// ---------------------------------------------------------------------
// Same-node direct handoff: the sending executor pushes a same-node
// packet straight into the sibling's inbox; the daemon never sees it.
// ---------------------------------------------------------------------

TEST(SameNodeHandoff, ShipmSkipsTheDaemon) {
  Network net;
  net.add_node();
  Site& server = net.add_site(0, "server");
  Site& client = net.add_site(0, "client");
  Node& node = *net.nodes()[0];
  net::Transport& t = net.transport();
  net.submit_source("server", "export new p in p?(v) = print[v]");
  net.submit_source("client", "import p from server in p![42]");
  // Name-service frames still go through the outbox; draining it
  // serves them from this node's directory slice.
  server.run_slice(1000);
  EXPECT_EQ(server.outgoing_size(), 1u) << "the export";
  EXPECT_EQ(node.pump_site_outgoing(t, 0, 0), 1u);
  client.run_slice(1000);
  EXPECT_EQ(client.outgoing_size(), 1u) << "the lookup";
  EXPECT_EQ(node.pump_site_outgoing(t, 1, 0), 1u);
  EXPECT_EQ(client.incoming_size(), 1u) << "the reply";
  client.process_incoming();
  // The resumed import ships the message: after the sender's slice it
  // is already in the server's inbox, with no daemon pass.
  client.run_slice(1000);
  EXPECT_EQ(client.outgoing_size(), 0u);
  EXPECT_EQ(server.incoming_size(), 1u);
  EXPECT_EQ(node.local_deliveries(), 1u);
  EXPECT_EQ(client.mobility().local_handoffs, 1u);
  EXPECT_EQ(node.pump_site_outgoing(t, 1, 0), 0u);
  server.process_incoming();
  server.run_slice(1000);
  EXPECT_EQ(net.output("server"), std::vector<std::string>{"42"});
  EXPECT_EQ(t.packets_sent(), 0u);
  EXPECT_EQ(node.frames_malformed(), 0u);
}

// Three sites on one node: client -> relay -> server and back. Every
// driver prints the same and counts the same handoffs.
TEST(SameNodeHandoff, RpcChainAgreesAcrossDrivers) {
  struct Run {
    std::vector<std::string> output;
    std::uint64_t local = 0;
  };
  const auto run = [](Network::Mode mode) {
    Network::Config cfg;
    cfg.mode = mode;
    cfg.timeout_ms = 10'000;
    Network net(cfg);
    net.add_node();
    net.add_site(0, "server");
    net.add_site(0, "relay");
    net.add_site(0, "client");
    net.submit_source("server",
                      "export new svc in def Serve(self) = "
                      "self?{ val(x, r) = (r![x + 1] | Serve[self]) } in "
                      "Serve[svc]");
    net.submit_source("relay",
                      "import svc from server in export new mid in "
                      "def Relay(self) = self?{ val(x, r) = "
                      "((let y = svc![x * 2] in r![y]) | Relay[self]) } in "
                      "Relay[mid]");
    net.submit_source("client",
                      "import mid from relay in let a = mid![1] in "
                      "let b = mid![a] in print[\"chain\", a, b]");
    const Network::Result res = net.run();
    EXPECT_TRUE(res.quiescent);
    EXPECT_FALSE(res.budget_exhausted);
    EXPECT_EQ(net.all_errors(), std::vector<std::string>{});
    net.collect_garbage();
    Run r;
    for (const char* site : {"server", "relay", "client"})
      for (const auto& line : net.output(site))
        r.output.push_back(std::string(site) + ": " + line);
    r.local = net.nodes()[0]->local_deliveries();
    EXPECT_EQ(net.transport().packets_sent(), 0u);
    return r;
  };
  const Run seq = run(Network::Mode::kSequential);
  ASSERT_EQ(seq.output, std::vector<std::string>{"client: chain 3 7"});
  EXPECT_GE(seq.local, 8u) << "4 requests and 4 replies at least";
  for (const auto mode : {Network::Mode::kThreaded, Network::Mode::kSim}) {
    const Run other = run(mode);
    EXPECT_EQ(other.output, seq.output);
    EXPECT_EQ(other.local, seq.local);
  }
}

// A killed destination drops what is handed to it; the run still ends
// on its own (no deadline, nothing left queued at the join).
TEST(SameNodeHandoff, KilledDestinationDropsHandoffs) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.timeout_ms = 10'000;
  Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  net.add_site(0, "client");
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x] | S[self]) } in "
                    "export new p in S[p]");
  net.submit_source("client",
                    "import p from server in new a (p![0, a] | a?(v) = 0)");
  ASSERT_TRUE(net.run().quiescent);
  const std::uint64_t local0 = net.nodes()[0]->local_deliveries();
  EXPECT_GE(local0, 2u);
  net.find_site("server")->kill();
  net.submit_source("client",
                    "import p from server in let z = p![1] in print[z]");
  const Network::Result res = net.run();
  EXPECT_FALSE(res.budget_exhausted);
  EXPECT_FALSE(has_error(net, "stopped early"));
  EXPECT_GE(net.find_site("server")->mobility().dropped, 1u);
  EXPECT_GT(net.nodes()[0]->local_deliveries(), local0);
  EXPECT_TRUE(net.output("client").empty());
  EXPECT_EQ(net.transport().packets_sent(), 0u);
}

// A NetRef naming a site that does not exist (forged in a shipped
// value) never crashes a driver. On the sender's own node it is dropped
// at the sender with an error: never indexed, never passed to the
// daemon. On another node, that node's daemon drops it at route().
TEST(SameNodeHandoff, ForgedRefToMissingSiteIsDropped) {
  for (const std::uint32_t forged_node : {0u, 1u})
    for (const auto mode : {Network::Mode::kSequential,
                            Network::Mode::kThreaded, Network::Mode::kSim}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   ", node " + std::to_string(forged_node));
      Network::Config cfg;
      cfg.mode = mode;
      cfg.timeout_ms = 10'000;
      Network net(cfg);
      net.add_node();
      net.add_node();
      Site& server = net.add_site(0, "server");
      net.submit_source("server", "export new p in p?{ val(k) = k![1] }");
      ASSERT_TRUE(net.run().quiescent);
      // SHIPM p![k] where k names site 9 of `forged_node`.
      push_forged_ship(net, server,
                       {vm::NetRef::Kind::kChan, forged_node, 9, 1});
      Network::Result res;
      EXPECT_NO_THROW(res = net.run());
      EXPECT_FALSE(res.budget_exhausted);
      EXPECT_FALSE(has_error(net, "stopped early"));
      EXPECT_EQ(server.outgoing_size(), 0u);
      EXPECT_EQ(net.nodes()[0]->local_deliveries(), 0u);
      const bool same_node = forged_node == 0;
      EXPECT_EQ(has_error(net, "unknown site 9"), same_node);
      EXPECT_EQ(net.nodes()[forged_node]->frames_malformed(),
                same_node ? 0u : 1u);
    }
}

// A NetRef naming a node outside the fleet is dropped by the transport
// at send and counted there, and its work token is released, so the
// run still ends at quiescence instead of throwing in the daemon.
TEST(SameNodeHandoff, ForgedRefToMissingNodeIsDroppedAtSend) {
  for (const auto mode : {Network::Mode::kSequential, Network::Mode::kThreaded,
                          Network::Mode::kSim}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    Network::Config cfg;
    cfg.mode = mode;
    cfg.timeout_ms = 10'000;
    Network net(cfg);
    net.add_node();
    net.add_node();
    Site& server = net.add_site(0, "server");
    net.submit_source("server", "export new p in p?{ val(k) = k![1] }");
    ASSERT_TRUE(net.run().quiescent);
    // SHIPM p![k] where k names site 0 of node 7 (the fleet has 2).
    push_forged_ship(net, server, {vm::NetRef::Kind::kChan, 7, 0, 1});
    Network::Result res;
    EXPECT_NO_THROW(res = net.run());
    EXPECT_TRUE(res.quiescent);
    EXPECT_FALSE(res.budget_exhausted);
    EXPECT_FALSE(has_error(net, "stopped early"));
    net::Transport& t = net.transport();
    const std::uint64_t dropped =
        mode == Network::Mode::kSim
            ? dynamic_cast<net::SimTransport&>(t).dropped()
            : dynamic_cast<net::InProcTransport&>(t).dropped();
    EXPECT_EQ(dropped, 1u);
  }
}

// ---------------------------------------------------------------------
// Direct delivery between nodes: the sending executor hands a packet to
// Transport::send, and the transport's receiver hook (Node::deliver)
// pushes it into the destination site's inbox. Only daemon frames and
// frames the node cannot route wait for the daemon.
// ---------------------------------------------------------------------

const char* transport_name(Network::TransportKind k) {
  return k == Network::TransportKind::kTcp ? "tcp" : "inproc";
}

// A packet for a site node 1 does not have arrives through the hook: it
// is declined to the daemon, which drops it and counts it, and its work
// token is released, so the threaded run ends on its own.
TEST(DirectDelivery, ForgedSiteFromTransportIsDropped) {
  for (const auto kind :
       {Network::TransportKind::kInProc, Network::TransportKind::kTcp})
    for (const auto mode :
         {Network::Mode::kSequential, Network::Mode::kThreaded}) {
      SCOPED_TRACE(std::string(transport_name(kind)) + ", mode " +
                   std::to_string(static_cast<int>(mode)));
      Network::Config cfg;
      cfg.mode = mode;
      cfg.transport = kind;
      cfg.timeout_ms = 5'000;
      Network net(cfg);
      net.add_node();
      net.add_node();
      Site& server = net.add_site(0, "server");
      net.add_site(1, "other");
      net.submit_source("server", "export new p in p?{ val(k) = k![1] }");
      ASSERT_TRUE(net.run().quiescent);
      push_forged_ship(net, server, {vm::NetRef::Kind::kChan, 1, 9, 1});
      const Network::Result res = net.run();
      EXPECT_TRUE(res.quiescent);
      EXPECT_FALSE(res.budget_exhausted);
      EXPECT_FALSE(has_error(net, "stopped early"));
      EXPECT_EQ(net.nodes()[1]->frames_malformed(), 1u);
      EXPECT_EQ(net.transport().in_flight(), 0u);
      EXPECT_EQ(net.find_site("other")->incoming_size(), 0u);
    }
}

// Two sites on node 1 each ship 1 000 numbered messages to one sink on
// node 0; the sink prints them as it takes them. Each sender's numbers
// arrive in the order it sent them.
TEST(DirectDelivery, OrderHoldsPerSitePair) {
  constexpr int kMessages = 1000;
  for (const auto kind :
       {Network::TransportKind::kInProc, Network::TransportKind::kTcp}) {
    SCOPED_TRACE(transport_name(kind));
    Network::Config cfg;
    cfg.mode = Network::Mode::kThreaded;
    cfg.transport = kind;
    cfg.timeout_ms = 20'000;
    Network net(cfg);
    net.add_node();
    net.add_node();
    net.add_site(0, "sink");
    net.add_site(1, "a");
    net.add_site(1, "b");
    net.submit_source("sink",
                      "export new p in def S(self) = "
                      "self?{ val(k, i) = (print[k, i]; S[self]) } in S[p]");
    for (const auto& [site, k] : {std::pair{"a", 0}, std::pair{"b", 1}})
      net.submit_source(site, "import p from sink in def L(i) = if i == " +
                                  std::to_string(kMessages) +
                                  " then 0 else (p![" + std::to_string(k) +
                                  ", i] | L[i + 1]) in L[0]");
    const Network::Result res = net.run();
    ASSERT_TRUE(res.quiescent);
    EXPECT_EQ(net.all_errors(), std::vector<std::string>{});
    const auto& out = net.output("sink");
    ASSERT_EQ(out.size(), 2u * kMessages);
    int next[2] = {0, 0};
    for (const auto& line : out) {
      const int k = line[0] - '0';
      ASSERT_TRUE(k == 0 || k == 1) << line;
      ASSERT_EQ(line, std::to_string(k) + " " + std::to_string(next[k]));
      ++next[k];
    }
  }
}

// A request/reply chain across three nodes: client (node 2) -> relay
// (node 1) -> server (node 0) and back. Every driver prints the same.
// A sequential pump shows the daemons move only name-service frames:
// every site packet reached its inbox through the receiver hook.
TEST(DirectDelivery, CrossNodeRpcChainAgreesAcrossDrivers) {
  const auto build = [](Network& net) {
    net.add_node();
    net.add_node();
    net.add_node();
    net.add_site(0, "server");
    net.add_site(1, "relay");
    net.add_site(2, "client");
    net.submit_source("server",
                      "export new svc in def Serve(self) = "
                      "self?{ val(x, r) = (r![x + 1] | Serve[self]) } in "
                      "Serve[svc]");
    net.submit_source("relay",
                      "import svc from server in export new mid in "
                      "def Relay(self) = self?{ val(x, r) = "
                      "((let y = svc![x * 2] in r![y]) | Relay[self]) } in "
                      "Relay[mid]");
    net.submit_source("client",
                      "import mid from relay in let a = mid![1] in "
                      "let b = mid![a] in print[\"chain\", a, b]");
  };
  const auto run = [&](Network::Mode mode) {
    Network::Config cfg;
    cfg.mode = mode;
    cfg.timeout_ms = 10'000;
    Network net(cfg);
    build(net);
    const Network::Result res = net.run();
    EXPECT_TRUE(res.quiescent);
    EXPECT_FALSE(res.budget_exhausted);
    EXPECT_EQ(net.all_errors(), std::vector<std::string>{});
    return net.output("client");
  };
  const std::vector<std::string> seq = run(Network::Mode::kSequential);
  ASSERT_EQ(seq, std::vector<std::string>{"chain 3 7"});
  EXPECT_EQ(run(Network::Mode::kThreaded), seq);
  EXPECT_EQ(run(Network::Mode::kSim), seq);

  // The sequential driver's pump with pump_incoming's loop spelled out,
  // so each packet the daemons take can be inspected.
  Network net;
  build(net);
  net::Transport& t = net.transport();
  std::size_t daemon_frames = 0;
  for (bool busy = true; busy;) {
    busy = false;
    for (const auto& n : net.nodes()) {
      net::Packet p;
      while (t.recv(n->id(), p, 0)) {
        EXPECT_TRUE(p.hdr.for_daemon())
            << "type " << static_cast<int>(p.hdr.type) << " to site "
            << p.hdr.dst_site;
        n->route(std::move(p), t, 0);
        ++daemon_frames;
        busy = true;
      }
      for (std::size_t i = 0; i < n->sites().size(); ++i) {
        Site& s = *n->sites()[i];
        busy |= s.process_incoming() != 0;
        busy |= s.run_slice(256) != 0;
        busy |= n->pump_site_outgoing(t, i, 0) != 0;
      }
    }
    busy |= t.in_flight() != 0;
  }
  EXPECT_EQ(net.output("client"), seq);
  // Remote name-service frames: relay's lookup and export, client's
  // lookup. The server's own export is served as it is sent.
  EXPECT_EQ(daemon_frames, 3u);
  EXPECT_GE(t.packets_sent(), daemon_frames + 8u)
      << "4 requests and 4 replies crossed nodes without a daemon";
}

// A receiver hook that stalls the delivering thread (over TCP, the
// destination's I/O thread) for 50 ms after each site packet it hands
// on, so the destination executor applies the packet — and may release
// the run's last work token — before deliver() returns.
class StallingReceiver final : public net::Receiver {
 public:
  explicit StallingReceiver(net::Receiver& inner) : inner_(inner) {}
  bool deliver(net::Packet& p, bool fresh,
               std::atomic<std::size_t>* transit) override {
    if (!inner_.deliver(p, fresh, transit)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  }
  net::Doorbell& daemon_bell() override { return inner_.daemon_bell(); }
  std::size_t inbox_backlog() const override {
    return inner_.inbox_backlog();
  }

 private:
  net::Receiver& inner_;
};

// The run's last packet is applied while the mesh's I/O thread still
// sits in deliver(). The packet left socket transit when it was queued,
// so the threaded run ends with nothing left over.
TEST(DirectDelivery, PacketAppliedBeforeDeliverReturnsIsNotInTransit) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.transport = Network::TransportKind::kTcp;
  cfg.timeout_ms = 10'000;
  std::vector<std::unique_ptr<StallingReceiver>> stalls;  // outlive net
  Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_source("server",
                    "export new svc in def Serve(self) = "
                    "self?{ val(x, r) = (r![x + 1] | Serve[self]) } in "
                    "Serve[svc]");
  net.submit_source("client",
                    "import svc from server in let y = svc![41] in "
                    "print[\"got\", y]");
  for (const auto& n : net.nodes()) {
    stalls.push_back(std::make_unique<StallingReceiver>(*n));
    net.transport().set_receiver(n->id(), stalls.back().get());
  }
  const Network::Result res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_FALSE(res.budget_exhausted);
  EXPECT_EQ(net.all_errors(), std::vector<std::string>{});
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"got 42"});
}

TEST(NameServicePackets, ExportThenLookupRoundTrip) {
  NameService ns(0);
  std::vector<net::Packet> replies;
  const vm::NetRef ref{vm::NetRef::Kind::kChan, 2, 3, 99};
  {
    auto bytes = NameService::make_export("server", "p", ref, "^{val[int]}");
    Reader r(bytes);
    r.u8();
    r.u32();
    ns.handle_export(r, replies);
  }
  EXPECT_TRUE(replies.empty()) << "no waiters yet";
  {
    auto bytes = NameService::make_lookup("server", "p",
                                          vm::NetRef::Kind::kChan, 5, 4, 77);
    Reader r(bytes);
    r.u8();
    r.u32();
    ns.handle_lookup(r, replies);
  }
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].dst_node, 5u);
  Reader r(replies[0].bytes);
  EXPECT_EQ(static_cast<MsgType>(r.u8()), MsgType::kNsReply);
  EXPECT_EQ(r.u32(), 4u);          // dst site
  EXPECT_EQ(r.u64(), 77u);         // token
  EXPECT_TRUE(r.boolean());        // ok
  EXPECT_EQ(read_netref(r), ref);
  EXPECT_EQ(r.str(), "^{val[int]}");
  EXPECT_EQ(r.u64(), 0u) << "a weak (credit 0) binding hands out no credit";
  EXPECT_TRUE(r.done());
}

TEST(NameServicePackets, ParkedLookupReleasedByExport) {
  NameService ns(0);
  std::vector<net::Packet> replies;
  for (std::uint64_t tok : {10u, 11u, 12u}) {
    auto bytes = NameService::make_lookup("server", "late",
                                          vm::NetRef::Kind::kChan, 1, 0, tok);
    Reader r(bytes);
    r.u8();
    r.u32();
    ns.handle_lookup(r, replies);
  }
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(ns.parked(), 3u);
  ns.register_id("server", "late", {vm::NetRef::Kind::kChan, 0, 0, 5}, "",
                 replies);
  EXPECT_EQ(replies.size(), 3u);
  EXPECT_EQ(ns.parked(), 0u);
}

TEST(NameServicePackets, SiteTable) {
  NameService ns(0);
  ns.register_site("alpha", 3, 1);
  auto info = ns.lookup_site("alpha");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->node, 3u);
  EXPECT_EQ(info->site, 1u);
  EXPECT_FALSE(ns.lookup_site("beta").has_value());
}

TEST(NameServicePackets, StatsAccumulate) {
  NameService ns(0);
  std::vector<net::Packet> replies;
  ns.register_id("s", "a", {vm::NetRef::Kind::kChan, 0, 0, 1}, "", replies);
  {
    auto bytes =
        NameService::make_lookup("s", "a", vm::NetRef::Kind::kChan, 0, 0, 1);
    Reader r(bytes);
    r.u8();
    r.u32();
    ns.handle_lookup(r, replies);
  }
  EXPECT_EQ(ns.stats().exports, 1u);
  EXPECT_EQ(ns.stats().lookups, 1u);
  EXPECT_EQ(ns.stats().replies, 1u);
}

}  // namespace
}  // namespace dityco::core
