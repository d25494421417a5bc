// Wire protocol between communication daemons (TyCOd), and the
// marshalling of values across node boundaries.
//
// Marshalling implements the paper's two-step identifier translation
// (section 5, "Mapping between Local and Network References"):
//   step 1 (sender):  local heap references -> network references via the
//                     export table (registering on first export); all
//                     other values pass through;
//   step 2 (receiver): network references that point into the receiving
//                     site's heap -> local references via its export
//                     table; all others are interned as foreign netrefs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "vm/machine.hpp"

namespace dityco::core {

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

// -- packet header -------------------------------------------------------
//
// Every frame starts [type u8][dst_site u32]; dst_site sits at a fixed
// offset for daemon routing. The high bits of the type byte are flags:
// kTraceFlag marks a traced frame, which inserts a causal trace id after
// the routing word, [type|0x80 u8][dst_site u32][trace_id u64][payload].
// Trace ids correlate the departure and arrival events of one mobility
// operation across sites (see obs/trace.hpp); a site only emits them
// while tracing is on. kSampledFlag (traced frames only) marks a sampled
// operation that every hop records; without it the id still rides along
// (reply routing and causality need it) but hops skip recording. Any
// other flag bit, and any type outside MsgType, is a malformed frame.
//
// Distributed GC (DESIGN.md §GC) is part of the payload layout: a u64
// credit field follows every marshalled netref, and every NS export and
// NS reply ends with the credit carried for its netref. A weak handle
// carries 0.

/// Type-byte flag marking a frame that carries a trace id.
constexpr std::uint8_t kTraceFlag = 0x80;
/// Type-byte flag (traced frames only): the trace id was sampled in.
constexpr std::uint8_t kSampledFlag = 0x40;

struct PacketHeader {
  MsgType type = MsgType::kShipMsg;
  std::uint32_t dst_site = 0;
  std::uint64_t trace_id = 0;  // 0 = untraced
  bool sampled = true;         // hops should record this operation
};

/// Write a frame header; the trace id (and the sampled bit) are only
/// written when trace_id != 0.
void write_header(Writer& w, MsgType t, std::uint32_t dst_site,
                  std::uint64_t trace_id = 0, bool sampled = true);
/// Read and validate a header; throws DecodeError on an unknown type or
/// flag bit.
PacketHeader read_header(Reader& r);

/// Peek the message type of a framed packet (flags masked off, not
/// validated) for routing before the header is parsed.
MsgType packet_type(const std::vector<std::uint8_t>& bytes);
/// Peek a framed packet's trace id (0 when untraced).
std::uint64_t packet_trace_id(const std::vector<std::uint8_t>& bytes);
/// Peek whether a framed packet's operation was sampled (true when
/// untraced).
bool packet_sampled(const std::vector<std::uint8_t>& bytes);

/// Marshal one value leaving `m` (sender side, step 1). Every netref
/// written is followed by a u64 credit field: marshalling an owned
/// reference mints kMintCredit against its export-table entry,
/// forwarding a foreign reference ships half the local balance.
void marshal_value(vm::Machine& m, const vm::Value& v, Writer& w);
void marshal_values(vm::Machine& m, const std::vector<vm::Value>& vs,
                    Writer& w);

/// Unmarshal one value arriving at `m` (receiver side, step 2),
/// consuming the credit fields: credit on a reference owned by `m`
/// returns to its export entry, credit on a foreign reference adds to
/// the local balance (0 interns a weak handle).
vm::Value unmarshal_value(vm::Machine& m, Reader& r);
std::vector<vm::Value> unmarshal_values(vm::Machine& m, Reader& r);

/// Build a REL frame: releaser (rel_node, rel_site) tells `ref`'s owner
/// that its *cumulative* released credit for this reference is `cum`.
/// Cumulative totals make REL idempotent: duplicates and reordered
/// deliveries max-merge at the owner, dropped ones are healed by
/// retransmission.
/// `trace_id`/`sampled` ride the standard header bits so traced sites
/// can follow REL frames too.
std::vector<std::uint8_t> make_release(const vm::NetRef& ref,
                                       std::uint32_t rel_node,
                                       std::uint32_t rel_site,
                                       std::uint64_t cum,
                                       std::uint64_t trace_id = 0,
                                       bool sampled = true);

/// Build a PEER-DOWN frame: a local failure detector confirmed
/// `dead_node` dead. Never sent over the network — the transport injects
/// it into its own inbox so the node routes it like any delivery and
/// write-off runs on an executor thread, not the I/O thread. dst_site is
/// a broadcast sentinel (every site on the node must write off).
std::vector<std::uint8_t> make_peer_down(std::uint32_t dead_node);
/// Read the dead node id from a PEER-DOWN payload (after the header).
std::uint32_t read_peer_down(Reader& r);

/// Build a CREDIT-MOVED frame: the name service (or another
/// intermediary) handed `amount` of its held credit for `ref` to
/// `to_node`; `ref`'s owner should re-attribute that slice of its
/// outstanding balance so a write-off of `to_node` can forgive it.
std::vector<std::uint8_t> make_credit_moved(const vm::NetRef& ref,
                                            std::uint32_t to_node,
                                            std::uint64_t amount);
struct CreditMoved {
  vm::NetRef ref;
  std::uint32_t to_node = 0;
  std::uint64_t amount = 0;
};
CreditMoved read_credit_moved(Reader& r);

/// Build an NS-INVALIDATE frame: the shard owning directory key
/// (site, name) rebound, dropped or evicted the binding; every node
/// holding a lease on it must drop its cached entry. Node-addressed
/// (dst_site is the broadcast sentinel): the receiving daemon feeds its
/// lease cache, no site ever sees the frame.
std::vector<std::uint8_t> make_ns_invalidate(const std::string& site,
                                             const std::string& name);
struct NsInvalidate {
  std::string site, name;
};
NsInvalidate read_ns_invalidate(Reader& r);

void write_netref(Writer& w, const vm::NetRef& r);
vm::NetRef read_netref(Reader& r);

/// Serialise a segment closure (root first).
void write_closure(Writer& w, const std::vector<vm::Segment>& segs);
/// Read a closure into a guid-keyed pool plus the root guid.
std::map<vm::SegmentGuid, vm::Segment> read_closure(Reader& r,
                                                    vm::SegmentGuid& root);

}  // namespace dityco::core
