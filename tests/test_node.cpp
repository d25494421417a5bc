// Protocol-level tests for the TyCOd daemon (Node) and the name-service
// packet formats: header parsing, routing to sites, the shared-memory
// fast path, and NS request/reply framing.
#include <gtest/gtest.h>

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
  w.u8(static_cast<std::uint8_t>(MsgType::kShipMsg));
  w.u32(dst_site);
  w.u64(heap_id);
  w.str(label);
  w.u32(0);  // zero arguments
  net::Packet p;
  p.src_node = src_node;
  p.dst_node = dst_node;
  p.bytes = w.take();
  return p;
}

TEST(NodeRouting, HeaderParsing) {
  auto p = ship_msg_packet(0, 1, 7, 42, "go");
  EXPECT_EQ(packet_dst_site(p), 7u);
  EXPECT_FALSE(packet_is_ns(p));

  auto lookup = NameService::make_lookup("s", "x", vm::NetRef::Kind::kChan,
                                         0, 0, 1);
  net::Packet q;
  q.bytes = lookup;
  EXPECT_TRUE(packet_is_ns(q));
  EXPECT_EQ(packet_dst_site(q), 0xffffffffu);
}

TEST(NodeRouting, ShortPacketRejected) {
  net::Packet p;
  p.bytes = {1, 2};
  EXPECT_THROW(packet_dst_site(p), DecodeError);
  net::Packet empty;
  EXPECT_THROW(packet_is_ns(empty), DecodeError);
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

TEST(NodeRouting, UnknownSiteRejected) {
  ns::ShardRouter router(1);
  Node node(0, router);
  node.add_site("only");
  net::InProcTransport t(1);
  EXPECT_THROW(node.route(ship_msg_packet(0, 0, 5, 1, "go"), t, 0),
               DecodeError);
}

TEST(NodeRouting, SharedMemoryFastPathCountsLocalDeliveries) {
  ns::ShardRouter router(1);
  Node node(0, router);
  Site& a = node.add_site("a");
  Site& b = node.add_site("b");
  net::InProcTransport t(1);
  // a sends to b on the same node: pump must deliver without transport.
  const std::uint32_t ch = b.machine().new_channel();
  const std::uint64_t hid = b.machine().export_chan(ch);
  {
    // Put a packet in a's outgoing queue by hand.
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::kShipMsg));
    w.u32(b.site_id());
    w.u64(hid);
    w.str("val");
    w.u32(0);
    net::Packet p;
    p.src_node = 0;
    p.dst_node = 0;
    p.bytes = w.take();
    // Site has no public push_outgoing; emulate by routing directly.
    node.route(std::move(p), t, 0);
  }
  EXPECT_EQ(t.packets_sent(), 0u);
  EXPECT_EQ(b.incoming_size(), 1u);
  (void)a;
}

TEST(NameServicePackets, ExportThenLookupRoundTrip) {
  NameService ns(0);
  std::vector<net::Packet> replies;
  const vm::NetRef ref{vm::NetRef::Kind::kChan, 2, 3, 99};
  {
    auto bytes = NameService::make_export(0, "server", "p", ref, "^{val[int]}");
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
