#include "net/packet.hpp"

namespace dityco::net {

namespace {

constexpr std::uint8_t kHeaderFlags = kTraceFlag | kSampledFlag;

/// The one check of a type byte's message kind: only MsgType values pass.
MsgType checked_type(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kShipMsg:
    case MsgType::kShipObj:
    case MsgType::kFetchReq:
    case MsgType::kFetchRep:
    case MsgType::kNsExport:
    case MsgType::kNsLookup:
    case MsgType::kNsReply:
    case MsgType::kRelease:
    case MsgType::kNsUnregister:
    case MsgType::kPeerDown:
    case MsgType::kCreditMoved:
    case MsgType::kNsInvalidate:
      return static_cast<MsgType>(t);
  }
  throw DecodeError("unknown packet type");
}

PacketHeader read_header(Reader& r) {
  const std::uint8_t b = r.u8();
  PacketHeader h;
  h.type = checked_type(b & static_cast<std::uint8_t>(~kHeaderFlags));
  if ((b & kTraceFlag) == 0 && (b & kSampledFlag) != 0)
    throw DecodeError("sampled flag on an untraced frame");
  h.dst_site = r.u32();
  if (b & kTraceFlag) {
    h.trace_id = r.u64();
    if (h.trace_id == 0) throw DecodeError("traced frame with trace id 0");
    h.sampled = (b & kSampledFlag) != 0;
  }
  return h;
}

}  // namespace

void write_header(Writer& w, MsgType t, std::uint32_t dst_site,
                  std::uint64_t trace_id, bool sampled) {
  std::uint8_t b = static_cast<std::uint8_t>(t);
  if (trace_id == 0) {
    w.u8(b);
    w.u32(dst_site);
    return;
  }
  b |= kTraceFlag;
  if (sampled) b |= kSampledFlag;
  w.u8(b);
  w.u32(dst_site);
  w.u64(trace_id);
}

Packet Packet::parse(std::uint32_t src_node, std::uint32_t dst_node,
                     std::vector<std::uint8_t> bytes) {
  Reader r(bytes);
  const PacketHeader hdr = read_header(r);
  return Packet{src_node, dst_node, hdr, std::move(bytes)};
}

}  // namespace dityco::net
