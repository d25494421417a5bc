// The daemon packet (paper section 4, fig. 4): one frame between node
// daemons, and the header every layer routes, traces and classifies it
// by. The header is parsed exactly once, when the Packet is built.
//
// Every frame starts [type u8][dst_site u32]. The high bits of the type
// byte are flags: kTraceFlag marks a traced frame, which inserts a
// causal trace id after the routing word,
// [type|0x80 u8][dst_site u32][trace_id u64][payload]. Trace ids
// correlate the departure and arrival events of one mobility operation
// across sites (see obs/trace.hpp); a site only emits them while
// tracing is on, and a traced frame never carries id 0. kSampledFlag
// (traced frames only) marks a sampled operation that every hop
// records; without it the id still rides along (reply routing and
// causality need it) but hops skip recording. Any other flag bit, and
// any type outside MsgType, is a malformed frame. The payload layouts
// are core/wire.hpp's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/bytes.hpp"

namespace dityco::net {

/// Packet types exchanged between daemons.
enum class MsgType : std::uint8_t {
  kShipMsg = 1,       // SHIPM: remote method invocation
  kShipObj = 2,       // SHIPO: object migration (carries a code closure)
  kFetchReq = 3,      // FETCH: request for class code
  kFetchRep = 4,      // FETCH reply: code closure + captured environment
  kNsExport = 5,      // register an exported identifier with the name service
  kNsLookup = 6,      // import: look up an exported identifier
  kNsReply = 7,       // name-service answer (sent once the name exists)
  kRelease = 8,       // REL: cumulative credit release back to the owner
  kNsUnregister = 9,  // drop an IdTable binding (final GC epoch)
  kPeerDown = 10,     // synthetic death notice from a failure detector
  kCreditMoved = 11,  // NS moved part of its credit share to a new holder
  kNsInvalidate = 12, // NS pushed a lease-cache invalidation for one key
};

/// Type-byte flag marking a frame that carries a trace id.
constexpr std::uint8_t kTraceFlag = 0x80;
/// Type-byte flag (traced frames only): the trace id was sampled in.
constexpr std::uint8_t kSampledFlag = 0x40;
/// dst_site of a frame no single site receives: name-service requests
/// and node-wide notices (PEER-DOWN, NS-INVALIDATE).
constexpr std::uint32_t kNoSite = 0xffffffffu;

struct PacketHeader {  // widest field first: 16 bytes, a Packet is 48
  std::uint64_t trace_id = 0;  // 0 = untraced
  std::uint32_t dst_site = 0;
  MsgType type = MsgType::kShipMsg;
  bool sampled = true;  // hops should record this operation

  /// Encoded size: the trace id is present exactly when it is non-zero.
  std::size_t size() const { return trace_id != 0 ? 13 : 5; }
  /// Frames the node daemon serves itself (its name-service slice or
  /// lease cache); every other type is addressed to a site.
  bool for_daemon() const {
    return type == MsgType::kNsExport || type == MsgType::kNsLookup ||
           type == MsgType::kNsUnregister || type == MsgType::kNsInvalidate;
  }
};

/// Write a frame header; the trace id (and the sampled bit) are only
/// written when trace_id != 0.
void write_header(Writer& w, MsgType t, std::uint32_t dst_site,
                  std::uint64_t trace_id = 0, bool sampled = true);

/// A frame in flight between daemons. A default Packet is only a slot to
/// receive into; every packet that moves is built by parse(), so `hdr`
/// always agrees with `bytes`.
struct Packet {
  std::uint32_t src_node = 0;
  std::uint32_t dst_node = 0;
  PacketHeader hdr;
  std::vector<std::uint8_t> bytes;  // the whole frame, header included

  /// Parse and validate the header of `bytes`; throws DecodeError on a
  /// short frame, an unknown type or flag bit, or a traced frame with
  /// trace id 0.
  static Packet parse(std::uint32_t src_node, std::uint32_t dst_node,
                      std::vector<std::uint8_t> bytes);
  /// The bytes after the header.
  std::span<const std::uint8_t> payload() const {
    return std::span<const std::uint8_t>(bytes).subspan(hdr.size());
  }
};

}  // namespace dityco::net
