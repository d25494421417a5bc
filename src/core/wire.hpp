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

#include "net/packet.hpp"
#include "support/bytes.hpp"
#include "vm/machine.hpp"

namespace dityco::core {

// Every frame starts with the header of net/packet.hpp; the codecs here
// write and read what follows it. Distributed GC (DESIGN.md §GC) is
// part of the payload layout: a u64 credit field follows every
// marshalled netref, and every NS export and NS reply ends with the
// credit carried for its netref. A weak handle carries 0.
using net::MsgType;
using net::write_header;

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
///
/// A REL body is one or more records (write_release_record), all for
/// exports of the site the header names; the owner applies them until
/// the body ends. make_release builds the one-record frame, a site's
/// GC pass packs every record for one owner into one frame.
std::vector<std::uint8_t> make_release(const vm::NetRef& ref,
                                       std::uint32_t rel_node,
                                       std::uint32_t rel_site,
                                       std::uint64_t cum,
                                       std::uint64_t trace_id = 0,
                                       bool sampled = true);
struct ReleaseRecord {
  vm::NetRef ref;
  std::uint32_t rel_node = 0;
  std::uint32_t rel_site = 0;
  std::uint64_t cum = 0;
};
void write_release_record(Writer& w, const vm::NetRef& ref,
                          std::uint32_t rel_node, std::uint32_t rel_site,
                          std::uint64_t cum);
ReleaseRecord read_release_record(Reader& r);

/// Build a PEER-DOWN frame: a local failure detector confirmed
/// `dead_node` dead. Never sent over the network — the transport injects
/// it into its own inbox so the node routes it like any delivery and
/// write-off runs on an executor thread, not the I/O thread. dst_site is
/// net::kNoSite (every site on the node must write off).
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
/// (dst_site is net::kNoSite): the receiving daemon feeds its
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
