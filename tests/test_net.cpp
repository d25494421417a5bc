// Transport unit tests: in-process delivery, link-cost models, the
// virtual-time semantics of the simulated cluster transport — and wire
// format regression tests pinning the one frame layout: the header, the
// credit field after every netref, and the decoder's rejections.
#include <gtest/gtest.h>

#include <thread>

#include "core/nameservice.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "vm/machine.hpp"

namespace dityco::net {
namespace {

Packet mk(std::uint32_t src, std::uint32_t dst, std::size_t size = 8) {
  Packet p;
  p.src_node = src;
  p.dst_node = dst;
  p.bytes.assign(size, 0xab);
  return p;
}

TEST(InProc, FifoPerNode) {
  InProcTransport t(2);
  auto a = mk(0, 1);
  a.bytes[0] = 1;
  auto b = mk(0, 1);
  b.bytes[0] = 2;
  t.send(std::move(a), 0);
  t.send(std::move(b), 0);
  Packet out;
  ASSERT_TRUE(t.recv(1, out, 0));
  EXPECT_EQ(out.bytes[0], 1);
  ASSERT_TRUE(t.recv(1, out, 0));
  EXPECT_EQ(out.bytes[0], 2);
  EXPECT_FALSE(t.recv(1, out, 0));
}

TEST(InProc, InFlightAccounting) {
  InProcTransport t(2);
  EXPECT_EQ(t.in_flight(), 0u);
  t.send(mk(0, 1), 0);
  t.send(mk(1, 0), 0);
  EXPECT_EQ(t.in_flight(), 2u);
  Packet out;
  t.recv(1, out, 0);
  EXPECT_EQ(t.in_flight(), 1u);
  t.recv(0, out, 0);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(InProc, BytesAndPacketsCounted) {
  InProcTransport t(2);
  t.send(mk(0, 1, 100), 0);
  t.send(mk(0, 1, 28), 0);
  EXPECT_EQ(t.bytes_sent(), 128u);
  EXPECT_EQ(t.packets_sent(), 2u);
}

TEST(InProc, ThreadSafety) {
  InProcTransport t(2);
  std::thread producer([&] {
    for (int i = 0; i < 10000; ++i) t.send(mk(0, 1), 0);
  });
  int got = 0;
  Packet out;
  while (got < 10000) {
    if (t.recv(1, out, 0)) ++got;
  }
  producer.join();
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(LinkModel, CostComposition) {
  LinkModel m{10.0, 1000.0, 1.0};
  // 1000 Mb/s == 1000 bits/us: 1250 bytes == 10000 bits -> 10us transfer.
  EXPECT_DOUBLE_EQ(m.cost_us(1250), 10.0 + 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(m.cost_us(0), 11.0);
}

TEST(LinkModel, MyrinetBeatsFastEthernet) {
  for (std::size_t sz : {0u, 64u, 1500u, 100000u})
    EXPECT_LT(myrinet().cost_us(sz), fast_ethernet().cost_us(sz)) << sz;
}

TEST(Sim, DeliveryRespectsVirtualTime) {
  SimTransport t(2, LinkModel{10.0, 1000.0, 0.0});
  t.send(mk(0, 1, 0), /*now=*/5.0);  // arrival = 15
  Packet out;
  EXPECT_FALSE(t.recv(1, out, 14.9));
  EXPECT_EQ(t.in_flight(), 1u);
  EXPECT_TRUE(t.recv(1, out, 15.0));
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(Sim, NextArrivalAndPeek) {
  SimTransport t(2, LinkModel{10.0, 1000.0, 0.0});
  EXPECT_FALSE(t.next_arrival(1).has_value());
  t.send(mk(0, 1, 0), 100.0);
  ASSERT_TRUE(t.next_arrival(1).has_value());
  EXPECT_DOUBLE_EQ(*t.next_arrival(1), 110.0);
  double arr = 0;
  const Packet* head = t.peek(1, arr);
  ASSERT_NE(head, nullptr);
  EXPECT_DOUBLE_EQ(arr, 110.0);
  EXPECT_EQ(head->src_node, 0u);
}

TEST(Sim, ArrivalOrderingAcrossSenders) {
  SimTransport t(3, LinkModel{10.0, 1000.0, 0.0});
  auto late = mk(0, 2, 0);
  late.bytes.assign(1, 1);
  auto early = mk(1, 2, 0);
  early.bytes.assign(1, 2);
  t.send(std::move(late), 50.0);   // arrival ~60
  t.send(std::move(early), 10.0);  // arrival ~20
  Packet out;
  ASSERT_TRUE(t.recv(2, out, 1000.0));
  EXPECT_EQ(out.bytes[0], 2) << "earlier arrival first";
}

TEST(Sim, BandwidthMatters) {
  SimTransport fast(2, myrinet());
  SimTransport slow(2, fast_ethernet());
  fast.send(mk(0, 1, 100000), 0.0);
  slow.send(mk(0, 1, 100000), 0.0);
  EXPECT_LT(*fast.next_arrival(1), *slow.next_arrival(1));
}

}  // namespace
}  // namespace dityco::net

// ---------------------------------------------------------------------
// Wire format regression: one header layout, one credit-carrying payload
// ---------------------------------------------------------------------

namespace dityco::core {
namespace {

TEST(Wire, V1HeaderBytesUnchanged) {
  // [type u8][dst_site u32], plus [trace_id u64] when traced. The routing
  // word sits at offset 1 in both, and every MsgType is its own byte.
  for (std::uint8_t t = 1; t <= 12; ++t) {
    Writer w;
    write_header(w, static_cast<MsgType>(t), 7);
    const auto bytes = w.take();
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{t, 7, 0, 0, 0}));
    Reader r(bytes);
    const PacketHeader h = read_header(r);
    EXPECT_EQ(h.type, static_cast<MsgType>(t));
    EXPECT_EQ(h.dst_site, 7u);
    EXPECT_EQ(h.trace_id, 0u);
    EXPECT_TRUE(h.sampled);
  }
  Writer w;
  write_header(w, MsgType::kShipObj, 3, /*trace_id=*/0x0102030405060708ull,
               /*sampled=*/false);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{0x02 | kTraceFlag, 3, 0, 0,
                                                 0, 8, 7, 6, 5, 4, 3, 2, 1}));
}

TEST(Wire, NetrefCarriesCreditField) {
  // A marshalled netref is [tag u8][kind u8][node u32][site u32][heap u64]
  // [credit u64]; marshalling an owned channel mints kMintCredit.
  vm::Machine m("m", 0, 0);
  Writer w;
  marshal_value(m, vm::Value::make_chan(m.new_channel()), w);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u + 17u + 8u);
  Reader r(bytes);
  r.u8();
  EXPECT_EQ(read_netref(r).node, 0u);
  EXPECT_EQ(r.u64(), vm::kMintCredit);
  EXPECT_TRUE(r.done());
}

/// Which decoder a frame in the table below is fed to.
enum class Receiver { kSite, kNameService };

struct DecodeCase {
  const char* what;
  std::vector<std::uint8_t> bytes;
  Receiver at;
  bool rejected;
};

TEST(Wire, TruncatedCreditFieldIsRejected) {
  // One decode table over the real receivers: a site's inbox for
  // site-bound frames, a name-service slice for exports.
  Network net;
  net.add_node();
  Site& site = net.add_site(0, "s");
  const std::uint64_t heap_id =
      site.machine().export_chan(site.machine().new_channel());
  // A channel owned elsewhere (node 1), as a SHIPM argument with its
  // minted credit, or with the credit field zeroed (a weak handle).
  vm::Machine owner("owner", 1, 0);
  const auto shipm = [&](bool weak) {
    Writer w;
    write_header(w, MsgType::kShipMsg, site.site_id());
    w.u64(heap_id);
    w.str("val");
    marshal_values(owner, {vm::Value::make_chan(owner.new_channel())}, w);
    auto bytes = w.take();
    if (weak) std::fill(bytes.end() - 8, bytes.end(), 0);
    return bytes;
  };
  const auto ns_reply = [&] {
    Writer w;
    write_header(w, MsgType::kNsReply, site.site_id());
    w.u64(/*token=*/1);
    w.boolean(true);
    write_netref(w, vm::NetRef{vm::NetRef::Kind::kChan, 1, 0, 9});
    w.str("");
    w.u64(vm::kMintCredit);
    return w.take();
  };
  const auto torn = [](std::vector<std::uint8_t> bytes) {
    bytes.resize(bytes.size() - 3);
    return bytes;
  };
  const auto type_byte = [](std::vector<std::uint8_t> bytes, std::uint8_t b) {
    bytes[0] = b;
    return bytes;
  };
  const std::vector<DecodeCase> cases = {
      {"SHIPM, torn credit", torn(shipm(false)), Receiver::kSite, true},
      {"NS export, torn credit",
       torn(NameService::make_export(0, "s", "x",
                                     {vm::NetRef::Kind::kChan, 1, 0, 9}, "",
                                     0, true, vm::kMintCredit)),
       Receiver::kNameService, true},
      {"NS reply, torn credit", torn(ns_reply()), Receiver::kSite, true},
      {"type byte with 0x20 set", type_byte(shipm(false), 0x01 | 0x20),
       Receiver::kSite, true},
      {"unknown type", type_byte(shipm(false), 13), Receiver::kSite, true},
      {"sampled bit on an untraced frame",
       type_byte(shipm(false), 0x01 | kSampledFlag), Receiver::kSite, true},
      {"zero-credit netref", shipm(true), Receiver::kSite, false},
  };
  NameService ns(0);
  for (const DecodeCase& c : cases) {
    bool rejected = false;
    if (c.at == Receiver::kSite) {
      const std::size_t errors = site.errors().size();
      site.push_incoming(c.bytes);
      site.process_incoming();
      rejected = site.errors().size() > errors;
    } else {
      std::vector<net::Packet> replies;
      Reader r(c.bytes);
      try {
        read_header(r);
        ns.handle_export(r, replies);
      } catch (const DecodeError&) {
        rejected = true;
      }
    }
    EXPECT_EQ(rejected, c.rejected) << c.what;
  }
  // Only the zero-credit frame got through: a weak handle, no credit.
  EXPECT_EQ(ns.id_count(), 0u);
  EXPECT_EQ(site.machine().live_netrefs(), 1u);
  EXPECT_EQ(site.machine().netref_credit_total(), 0u);
}

TEST(Wire, ForgedCountsAreRejectedBeforeAllocating) {
  // A count larger than the bytes that follow it is refused as soon as
  // it is read, not after reserving room for it (16 GiB of code words,
  // 64 GiB of values).
  Writer seg;
  for (int k = 0; k < 3; ++k) seg.u32(0);  // guid
  seg.u32(0xffffffffu);                    // code length
  seg.u32(0);
  Reader rs(seg.data());
  EXPECT_THROW(vm::Segment::deserialize(rs), DecodeError);

  Writer vals;
  vals.u32(0xffffffffu);  // value count
  vals.u8(0);
  vm::Machine m("m", 0, 0);
  Reader rv(vals.data());
  EXPECT_THROW(unmarshal_values(m, rv), DecodeError);
}

TEST(Wire, ReleaseFrameRoundTrip) {
  const vm::NetRef ref{vm::NetRef::Kind::kChan, /*node=*/9, /*site=*/2,
                       /*heap_id=*/4242};
  const auto bytes = make_release(ref, /*rel_node=*/3, /*rel_site=*/1,
                                  /*cum=*/vm::kMintCredit / 2);
  Reader r(bytes);
  const PacketHeader h = read_header(r);
  EXPECT_EQ(h.type, MsgType::kRelease);
  EXPECT_EQ(h.dst_site, ref.site) << "REL routes to the owning site";
  const vm::NetRef got = read_netref(r);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(r.u32(), 3u);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u64(), vm::kMintCredit / 2);
}

TEST(Wire, PlainValuesCarryNoCreditField) {
  // Only netrefs carry credit: a builtin value is its tag and payload.
  vm::Machine m("m", 0, 0);
  for (const auto& [v, size] :
       {std::pair{vm::Value::make_int(-7), 9u},
        std::pair{vm::Value::make_bool(true), 2u},
        std::pair{vm::Value::make_float(2.5), 9u}}) {
    Writer w;
    marshal_value(m, v, w);
    EXPECT_EQ(w.take().size(), size);
  }
}

}  // namespace
}  // namespace dityco::core
