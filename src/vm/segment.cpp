#include "vm/segment.hpp"

namespace dityco::vm {

void Segment::serialize(Writer& w) const {
  w.u32(guid.node);
  w.u32(guid.site);
  w.u32(guid.index);
  w.u32(static_cast<std::uint32_t>(code.size()));
  for (std::uint32_t c : code) w.u32(c);
  w.u32(static_cast<std::uint32_t>(labels.size()));
  for (const auto& s : labels) w.str(s);
  w.u32(static_cast<std::uint32_t>(strings.size()));
  for (const auto& s : strings) w.str(s);
  w.u32(static_cast<std::uint32_t>(floats.size()));
  for (double f : floats) w.f64(f);
  w.u32(static_cast<std::uint32_t>(deps.size()));
  for (const auto& d : deps) {
    w.u32(d.node);
    w.u32(d.site);
    w.u32(d.index);
  }
}

Segment Segment::deserialize(Reader& r) {
  Segment s;
  s.guid.node = r.u32();
  s.guid.site = r.u32();
  s.guid.index = r.u32();
  const std::uint32_t ncode = r.u32();
  // The count comes off the wire: bound it by the bytes present before
  // reserving, or a forged count asks for up to 16 GiB.
  if (ncode > r.remaining() / sizeof(std::uint32_t))
    throw DecodeError("segment code length exceeds the frame");
  s.code.reserve(ncode);
  for (std::uint32_t i = 0; i < ncode; ++i) s.code.push_back(r.u32());
  const std::uint32_t nlab = r.u32();
  for (std::uint32_t i = 0; i < nlab; ++i) s.labels.push_back(r.str());
  const std::uint32_t nstr = r.u32();
  for (std::uint32_t i = 0; i < nstr; ++i) s.strings.push_back(r.str());
  const std::uint32_t nflt = r.u32();
  for (std::uint32_t i = 0; i < nflt; ++i) s.floats.push_back(r.f64());
  const std::uint32_t ndep = r.u32();
  for (std::uint32_t i = 0; i < ndep; ++i) {
    SegmentGuid g;
    g.node = r.u32();
    g.site = r.u32();
    g.index = r.u32();
    s.deps.push_back(g);
  }
  return s;
}

std::size_t Program::byte_size() const {
  std::size_t n = 0;
  for (const auto& s : segments) {
    n += s.code.size() * sizeof(std::uint32_t);
    for (const auto& l : s.labels) n += l.size() + 4;
    for (const auto& c : s.strings) n += c.size() + 4;
    n += s.floats.size() * sizeof(double);
    n += s.deps.size() * sizeof(SegmentGuid);
  }
  return n;
}

}  // namespace dityco::vm
