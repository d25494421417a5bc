#include "core/wire.hpp"

namespace dityco::core {

namespace {

enum class WireTag : std::uint8_t {
  kInt = 1,
  kBool,
  kFloat,
  kStr,
  kNetRef,
};

}  // namespace

void write_netref(Writer& w, const vm::NetRef& r) {
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u32(r.node);
  w.u32(r.site);
  w.u64(r.heap_id);
}

vm::NetRef read_netref(Reader& r) {
  vm::NetRef out;
  const std::uint8_t k = r.u8();
  if (k > 1) throw DecodeError("bad netref kind");
  out.kind = static_cast<vm::NetRef::Kind>(k);
  out.node = r.u32();
  out.site = r.u32();
  out.heap_id = r.u64();
  return out;
}

void marshal_value(vm::Machine& m, const vm::Value& v, Writer& w) {
  using Tag = vm::Value::Tag;
  switch (v.tag) {
    case Tag::kInt:
      w.u8(static_cast<std::uint8_t>(WireTag::kInt));
      w.i64(v.i);
      return;
    case Tag::kBool:
      w.u8(static_cast<std::uint8_t>(WireTag::kBool));
      w.boolean(v.b);
      return;
    case Tag::kFloat:
      w.u8(static_cast<std::uint8_t>(WireTag::kFloat));
      w.f64(v.f);
      return;
    case Tag::kStr:
      w.u8(static_cast<std::uint8_t>(WireTag::kStr));
      w.str(m.str(v.idx));
      return;
    case Tag::kChan: {
      // Step 1: a local name leaving the site becomes a network reference.
      const auto [id, credit] = m.export_chan_credit(v.idx);
      w.u8(static_cast<std::uint8_t>(WireTag::kNetRef));
      write_netref(w, vm::NetRef{vm::NetRef::Kind::kChan, m.node_id(),
                                 m.site_id(), id});
      w.u64(credit);
      return;
    }
    case Tag::kClass: {
      const auto [id, credit] = m.export_class_credit(v);
      w.u8(static_cast<std::uint8_t>(WireTag::kNetRef));
      write_netref(w, vm::NetRef{vm::NetRef::Kind::kClass, m.node_id(),
                                 m.site_id(), id});
      w.u64(credit);
      return;
    }
    case Tag::kNetRef:
      // Already a network reference: passes through untouched, with half
      // of the local credit balance.
      w.u8(static_cast<std::uint8_t>(WireTag::kNetRef));
      write_netref(w, m.netref(v.idx));
      w.u64(m.split_netref_credit(v.idx));
      return;
  }
  throw DecodeError("unmarshallable value tag");
}

void marshal_values(vm::Machine& m, const std::vector<vm::Value>& vs,
                    Writer& w) {
  w.u32(static_cast<std::uint32_t>(vs.size()));
  for (const auto& v : vs) marshal_value(m, v, w);
}

vm::Value unmarshal_value(vm::Machine& m, Reader& r) {
  switch (static_cast<WireTag>(r.u8())) {
    case WireTag::kInt:
      return vm::Value::make_int(r.i64());
    case WireTag::kBool:
      return vm::Value::make_bool(r.boolean());
    case WireTag::kFloat:
      return vm::Value::make_float(r.f64());
    case WireTag::kStr:
      return vm::Value::make_str(m.intern_string(r.str()));
    case WireTag::kNetRef: {
      const vm::NetRef ref = read_netref(r);
      const std::uint64_t credit = r.u64();
      // Step 2: references into this site's heap become local again (the
      // credit they carried comes home to the export entry).
      if (ref.owned_by(m.node_id(), m.site_id())) {
        const vm::Value v = ref.kind == vm::NetRef::Kind::kChan
                                ? m.resolve_exported_chan(ref.heap_id)
                                : m.resolve_exported_class(ref.heap_id);
        if (credit != 0) m.return_export_credit(ref.kind, ref.heap_id, credit);
        return v;
      }
      return vm::Value::make_netref(m.intern_netref_credit(ref, credit));
    }
  }
  throw DecodeError("bad wire tag");
}

std::vector<vm::Value> unmarshal_values(vm::Machine& m, Reader& r) {
  const std::uint32_t n = r.u32();
  // Every value takes at least its tag byte: a count beyond the bytes
  // present is forged, and reserving it could ask for 64 GiB.
  if (n > r.remaining()) throw DecodeError("value count exceeds the frame");
  std::vector<vm::Value> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back(unmarshal_value(m, r));
  return out;
}

std::vector<std::uint8_t> make_release(const vm::NetRef& ref,
                                       std::uint32_t rel_node,
                                       std::uint32_t rel_site,
                                       std::uint64_t cum,
                                       std::uint64_t trace_id,
                                       bool sampled) {
  Writer w;
  write_header(w, MsgType::kRelease, ref.site, trace_id, sampled);
  write_release_record(w, ref, rel_node, rel_site, cum);
  return w.take();
}

void write_release_record(Writer& w, const vm::NetRef& ref,
                          std::uint32_t rel_node, std::uint32_t rel_site,
                          std::uint64_t cum) {
  write_netref(w, ref);
  w.u32(rel_node);
  w.u32(rel_site);
  w.u64(cum);
}

ReleaseRecord read_release_record(Reader& r) {
  ReleaseRecord out;
  out.ref = read_netref(r);
  out.rel_node = r.u32();
  out.rel_site = r.u32();
  out.cum = r.u64();
  return out;
}

std::vector<std::uint8_t> make_peer_down(std::uint32_t dead_node) {
  Writer w;
  write_header(w, MsgType::kPeerDown, net::kNoSite);
  w.u32(dead_node);
  return w.take();
}

std::uint32_t read_peer_down(Reader& r) { return r.u32(); }

std::vector<std::uint8_t> make_credit_moved(const vm::NetRef& ref,
                                            std::uint32_t to_node,
                                            std::uint64_t amount) {
  Writer w;
  write_header(w, MsgType::kCreditMoved, ref.site);
  write_netref(w, ref);
  w.u32(to_node);
  w.u64(amount);
  return w.take();
}

CreditMoved read_credit_moved(Reader& r) {
  CreditMoved out;
  out.ref = read_netref(r);
  out.to_node = r.u32();
  out.amount = r.u64();
  return out;
}

std::vector<std::uint8_t> make_ns_invalidate(const std::string& site,
                                             const std::string& name) {
  Writer w;
  write_header(w, MsgType::kNsInvalidate, net::kNoSite);
  w.str(site);
  w.str(name);
  return w.take();
}

NsInvalidate read_ns_invalidate(Reader& r) {
  NsInvalidate out;
  out.site = r.str();
  out.name = r.str();
  return out;
}

void write_closure(Writer& w, const std::vector<vm::Segment>& segs) {
  w.u32(static_cast<std::uint32_t>(segs.size()));
  for (const auto& s : segs) s.serialize(w);
}

std::map<vm::SegmentGuid, vm::Segment> read_closure(Reader& r,
                                                    vm::SegmentGuid& root) {
  const std::uint32_t n = r.u32();
  if (n == 0) throw DecodeError("empty code closure");
  std::map<vm::SegmentGuid, vm::Segment> pool;
  bool first = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    vm::Segment s = vm::Segment::deserialize(r);
    if (first) {
      root = s.guid;
      first = false;
    }
    pool.emplace(s.guid, std::move(s));
  }
  return pool;
}

}  // namespace dityco::core
