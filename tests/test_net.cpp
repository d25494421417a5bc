// Transport unit tests: in-process delivery, link-cost models, the
// virtual-time semantics of the simulated cluster transport — and wire
// format regression tests pinning the v1/v2 frame layouts against the
// distributed-GC extension (kGcFlag).
#include <gtest/gtest.h>

#include <thread>

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
// Wire format regression: the GC extension must not disturb v1/v2 frames
// ---------------------------------------------------------------------

namespace dityco::core {
namespace {

TEST(Wire, V1HeaderBytesUnchanged) {
  // The original frame layout: [type u8][dst_site u32]. Any drift here
  // breaks daemon routing of packets from pre-GC peers.
  Writer w;
  write_header(w, MsgType::kShipMsg, 7);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x07);
  Reader r(bytes);
  const PacketHeader h = read_header(r);
  EXPECT_EQ(h.type, MsgType::kShipMsg);
  EXPECT_EQ(h.dst_site, 7u);
  EXPECT_EQ(h.trace_id, 0u);
  EXPECT_FALSE(h.gc);
}

TEST(Wire, GcFlagRidesTheTypeByteOnBothLayouts) {
  {  // v1 layout + gc: flag only, no extra header bytes
    Writer w;
    write_header(w, MsgType::kShipMsg, 7, /*trace_id=*/0, /*sampled=*/true,
                 /*gc=*/true);
    const auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 5u) << "kGcFlag must not grow the header";
    EXPECT_EQ(bytes[0], 0x01 | kGcFlag);
    Reader r(bytes);
    const PacketHeader h = read_header(r);
    EXPECT_TRUE(h.gc);
    EXPECT_EQ(h.dst_site, 7u);
  }
  {  // v2 layout (traced + sampled) + gc: all three flags coexist
    Writer w;
    write_header(w, MsgType::kShipObj, 3, /*trace_id=*/0xbeef,
                 /*sampled=*/true, /*gc=*/true);
    const auto bytes = w.take();
    EXPECT_EQ(bytes[0], 0x02 | kTraceFlag | kSampledFlag | kGcFlag);
    Reader r(bytes);
    const PacketHeader h = read_header(r);
    EXPECT_EQ(h.type, MsgType::kShipObj);
    EXPECT_EQ(h.trace_id, 0xbeefu);
    EXPECT_TRUE(h.sampled);
    EXPECT_TRUE(h.gc);
  }
}

TEST(Wire, NonGcMarshalBytesUnchanged) {
  // A netref marshalled without the GC extension must produce exactly the
  // pre-GC byte sequence; with it, the same sequence plus one trailing
  // u64 credit field (the freshly minted kMintCredit).
  vm::Machine m1("m1", 0, 0);
  const std::uint32_t c1 = m1.new_channel();
  Writer w1;
  marshal_value(m1, vm::Value::make_chan(c1), w1, /*gc=*/false);
  const auto legacy = w1.take();

  vm::Machine m2("m2", 0, 0);
  const std::uint32_t c2 = m2.new_channel();
  Writer w2;
  marshal_value(m2, vm::Value::make_chan(c2), w2, /*gc=*/true);
  const auto gc = w2.take();

  ASSERT_EQ(gc.size(), legacy.size() + 8u);
  EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), gc.begin()))
      << "the GC credit field must be a pure suffix";
  std::uint64_t credit = 0;
  for (int i = 0; i < 8; ++i)
    credit |= static_cast<std::uint64_t>(gc[legacy.size() +
                                            static_cast<std::size_t>(i)])
              << (8 * i);
  EXPECT_EQ(credit, vm::kMintCredit);

  // A legacy frame decodes at a GC-aware receiver as a weak handle.
  vm::Machine peer("peer", 1, 0);
  Reader r(legacy);
  const vm::Value v = unmarshal_value(peer, r, /*gc=*/false);
  EXPECT_EQ(v.tag, vm::Value::Tag::kNetRef);
  EXPECT_EQ(peer.netref_credit_total(), 0u);
}

TEST(Wire, TruncatedCreditFieldIsRejected) {
  vm::Machine m("m", 0, 0);
  Writer w;
  marshal_value(m, vm::Value::make_chan(m.new_channel()), w, /*gc=*/true);
  auto bytes = w.take();
  bytes.resize(bytes.size() - 3);  // tear the credit field
  vm::Machine peer("peer", 1, 0);
  Reader r(bytes);
  EXPECT_THROW(unmarshal_value(peer, r, /*gc=*/true), DecodeError);
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
  EXPECT_THROW(unmarshal_values(m, rv, /*gc=*/false), DecodeError);
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

TEST(Wire, PlainValuesUnaffectedByGcMode) {
  // Only netrefs grow a credit field: builtin values marshal identically
  // with and without the extension.
  vm::Machine m("m", 0, 0);
  for (const vm::Value v :
       {vm::Value::make_int(-7), vm::Value::make_bool(true),
        vm::Value::make_float(2.5)}) {
    Writer a, b;
    marshal_value(m, v, a, /*gc=*/false);
    marshal_value(m, v, b, /*gc=*/true);
    EXPECT_EQ(a.take(), b.take());
  }
}

}  // namespace
}  // namespace dityco::core
