#include "vm/verify.hpp"

#include <set>
#include <string>

namespace dityco::vm {

namespace {

struct Check {
  const Segment& seg;
  std::vector<std::string> problems;

  void fail(std::size_t at, const std::string& what) {
    problems.push_back("@" + std::to_string(at) + ": " + what);
  }

  /// Decode the instruction stream from `start`; returns the set of
  /// instruction-start offsets (empty set plus problems on failure).
  std::set<std::size_t> decode(std::size_t start) {
    std::set<std::size_t> starts;
    std::size_t i = start;
    while (i < seg.code.size()) {
      const std::uint32_t raw = seg.code[i];
      if (raw >= kOpCount) {
        fail(i, "unknown opcode " + std::to_string(raw));
        return {};
      }
      const Op op = static_cast<Op>(raw);
      const auto arity = static_cast<std::size_t>(op_arity(op));
      if (i + 1 + arity > seg.code.size()) {
        fail(i, "truncated instruction");
        return {};
      }
      starts.insert(i);
      i += 1 + arity;
    }
    return starts;
  }

  void operands(std::size_t start, const std::set<std::size_t>& starts) {
    for (std::size_t i : starts) {
      const Op op = static_cast<Op>(seg.code[i]);
      const std::uint32_t a = op_arity(op) >= 1 ? seg.code[i + 1] : 0;
      const std::uint32_t b = op_arity(op) >= 2 ? seg.code[i + 2] : 0;
      const std::uint32_t c = op_arity(op) >= 3 ? seg.code[i + 3] : 0;
      auto want_target = [&](std::uint32_t t) {
        if (t < start || !starts.contains(t))
          fail(i, "jump target " + std::to_string(t) +
                      " is not an instruction boundary");
      };
      auto want_string = [&](std::uint32_t s) {
        if (s >= seg.strings.size()) fail(i, "string index out of range");
      };
      switch (op) {
        case Op::kPushFloat:
          if (a >= seg.floats.size()) fail(i, "float index out of range");
          break;
        case Op::kPushStr:
          want_string(a);
          break;
        case Op::kGlobal:
          want_string(b);
          break;
        case Op::kJmp:
        case Op::kJmpIfFalse:
          want_target(a);
          break;
        case Op::kFork:
          want_target(a);
          break;
        case Op::kTrMsg:
          if (a >= seg.labels.size()) fail(i, "label index out of range");
          break;
        case Op::kTrObj:
        case Op::kMkBlock:
          if (a >= seg.deps.size()) fail(i, "dependency index out of range");
          break;
        case Op::kExportName:
        case Op::kExportClass:
          want_string(b);
          break;
        case Op::kImportName:
        case Op::kImportClass:
          want_string(b);
          want_string(c);
          break;
        default:
          break;
      }
    }
  }

  /// Validate an object/class table; returns the code start offset, or
  /// SIZE_MAX on failure.
  std::size_t table(bool object) {
    if (seg.code.empty()) {
      fail(0, "empty segment");
      return SIZE_MAX;
    }
    const std::size_t n = seg.code[0];
    const std::size_t entry = object ? 3 : 2;
    const std::size_t hdr = 1 + entry * n;
    if (n == 0 || hdr > seg.code.size()) {
      fail(0, "malformed table header");
      return SIZE_MAX;
    }
    return hdr;
  }

  void table_offsets(bool object, const std::set<std::size_t>& starts) {
    const std::size_t n = seg.code[0];
    const std::size_t entry = object ? 3 : 2;
    for (std::size_t k = 0; k < n; ++k) {
      if (object) {
        const std::uint32_t labelidx = seg.code[1 + entry * k];
        if (labelidx >= seg.labels.size())
          fail(1 + entry * k, "table label index out of range");
      }
      const std::uint32_t off = seg.code[entry * k + entry];
      if (!starts.contains(off))
        fail(entry * k + entry,
             "table offset " + std::to_string(off) +
                 " is not an instruction boundary");
    }
  }
};

std::vector<std::string> verify_with_role(const Segment& seg,
                                          SegmentRole role) {
  Check ck{seg, {}};
  std::size_t start = 0;
  const bool object = role == SegmentRole::kObject;
  if (role == SegmentRole::kObject || role == SegmentRole::kClass) {
    start = ck.table(object);
    if (start == SIZE_MAX) return ck.problems;
  }
  auto starts = ck.decode(start);
  if (starts.empty() && start < seg.code.size()) return ck.problems;
  if (role == SegmentRole::kObject || role == SegmentRole::kClass)
    ck.table_offsets(object, starts);
  ck.operands(start, starts);
  return ck.problems;
}

}  // namespace

std::vector<std::string> verify_segment(const Segment& seg,
                                        SegmentRole role) {
  if (role != SegmentRole::kAny) return verify_with_role(seg, role);
  // Unknown role: the segment is acceptable if it is valid under at
  // least one reading (the interpreter only ever uses it in the role its
  // referencing instruction implies; dynamic checks cover misuse).
  auto as_entry = verify_with_role(seg, SegmentRole::kEntry);
  if (as_entry.empty()) return {};
  auto as_object = verify_with_role(seg, SegmentRole::kObject);
  if (as_object.empty()) return {};
  auto as_class = verify_with_role(seg, SegmentRole::kClass);
  if (as_class.empty()) return {};
  // Report the entry-reading problems (usually the most informative).
  return as_entry;
}

std::size_t code_start(const Segment& seg, SegmentRole role) {
  if (seg.code.empty()) return 0;
  switch (role) {
    case SegmentRole::kObject:
      return 1 + 3 * static_cast<std::size_t>(seg.code[0]);
    case SegmentRole::kClass:
      return 1 + 2 * static_cast<std::size_t>(seg.code[0]);
    default:
      return 0;
  }
}

std::vector<SegmentRole> classify_roles(const Program& p) {
  std::vector<SegmentRole> roles(p.segments.size(), SegmentRole::kAny);
  if (p.root < roles.size()) roles[p.root] = SegmentRole::kEntry;
  bool changed = true;
  std::vector<bool> scanned(p.segments.size(), false);
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      if (scanned[s] || roles[s] == SegmentRole::kAny) continue;
      scanned[s] = true;
      changed = true;
      const Segment& seg = p.segments[s];
      const std::size_t start = code_start(seg, roles[s]);
      for (std::size_t i = start; i < seg.code.size();) {
        const std::uint32_t raw = seg.code[i];
        if (raw >= kOpCount) break;
        const Op op = static_cast<Op>(raw);
        if ((op == Op::kTrObj || op == Op::kMkBlock) &&
            i + 1 < seg.code.size()) {
          const std::uint32_t dep = seg.code[i + 1];
          if (dep < seg.deps.size()) {
            const std::uint32_t target = seg.deps[dep].index;
            if (target < roles.size() && roles[target] == SegmentRole::kAny)
              roles[target] = op == Op::kTrObj ? SegmentRole::kObject
                                               : SegmentRole::kClass;
          }
        }
        i += 1 + static_cast<std::size_t>(op_arity(op));
      }
    }
  }
  return roles;
}

std::vector<std::string> verify_program(const Program& p) {
  std::vector<std::string> out;
  const auto roles = classify_roles(p);
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    for (auto& prob : verify_segment(p.segments[s], roles[s]))
      out.push_back("segment " + std::to_string(s) + " " + prob);
  }
  return out;
}

}  // namespace dityco::vm
