#include "vm/verify.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <utility>

namespace dityco::vm {

namespace {

constexpr std::int32_t kUnseen = -1;

/// Per-thread working storage, reused so verifying allocates nothing per
/// instruction (and, once warm, nothing per segment).
struct Scratch {
  std::vector<std::int32_t> depth;   // per code word: depth on entry
  std::vector<std::uint32_t> order;  // reachable instruction starts
  std::vector<std::uint64_t> live;   // per code word: one 64-slot window
  std::vector<std::uint32_t> entries;                         // table
  std::vector<std::pair<std::uint32_t, std::uint32_t>> forks; // target, nfree
};
thread_local Scratch scratch;

/// The problem text "@pc: what", with what's first "{}" replaced by `x`
/// and its second by `y`. Cold and out of line, so a passing
/// verification builds no text and its loop stays small.
[[gnu::cold, gnu::noinline]] std::string at(std::size_t pc,
                                            std::string_view what,
                                            std::uint64_t x = 0,
                                            std::uint64_t y = 0) {
  std::string out = "@" + std::to_string(pc) + ": ";
  for (const std::uint64_t v : {x, y}) {
    const std::size_t hole = what.find("{}");
    if (hole == std::string_view::npos) break;
    out.append(what.substr(0, hole)).append(std::to_string(v));
    what.remove_prefix(hole + 2);
  }
  return out.append(what);
}

/// The slots an instruction reads before (`gen`) and writes (`kill`)
/// within the window [lo, lo + 64).
struct SlotUse {
  std::uint64_t gen = 0, kill = 0;
};

std::uint64_t window_bit(std::uint64_t slot, std::uint64_t lo) {
  return slot >= lo && slot < lo + 64 ? std::uint64_t{1} << (slot - lo) : 0;
}

SlotUse slot_use(Op op, const std::uint32_t* w, std::uint64_t lo) {
  switch (op) {
    case Op::kLoad:
    case Op::kExportName:
    case Op::kExportClass:
      return {window_bit(w[1], lo), 0};
    case Op::kStore:
    case Op::kNewChan:
    case Op::kGlobal:
    case Op::kImportName:   // resume stores the imported value
    case Op::kImportClass:
      return {0, window_bit(w[1], lo)};
    case Op::kMkBlock: {  // stores classes into [dst, dst + nclasses)
      const std::uint64_t b = std::max<std::uint64_t>(w[4], lo);
      const std::uint64_t e =
          std::min<std::uint64_t>(std::uint64_t{w[4]} + w[3], lo + 64);
      if (b >= e) return {};
      const std::uint64_t n = e - b;
      const std::uint64_t ones = n == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << n) - 1;
      return {0, ones << (b - lo)};
    }
    default:
      return {};
  }
}

/// Verify one reading. Returns "" when valid and adds what it proved to
/// `facts` (roles, maxima, entry locals, dependency uses); on a problem
/// `facts` is left partly written for the caller to discard.
std::string verify_reading(const Segment& seg, SegmentRole role,
                           SegmentFacts& facts) {
  const std::uint32_t* const code = seg.code.data();
  const std::size_t size = seg.code.size();
  Scratch& s = scratch;
  s.entries.clear();
  s.forks.clear();

  // The table: [n, (labelidx, nparams, offset)*] or [n, (nparams, offset)*].
  std::size_t start = 0;
  if (role != SegmentRole::kEntry) {
    if (size == 0) return at(0, "empty segment");
    const std::size_t row = role == SegmentRole::kObject ? 3 : 2;
    const std::size_t n = code[0];
    if (n == 0 || n > (size - 1) / row) return at(0, "malformed table header");
    start = 1 + row * n;
    for (std::size_t k = 0; k < n; ++k) {
      if (row == 3 && code[1 + row * k] >= seg.labels.size())
        return at(1 + row * k, "table label index out of range");
      const std::uint32_t off = code[row * (k + 1)];
      if (off < start || off >= size)
        return at(row * (k + 1),
                  "table offset {} is not an instruction boundary", off);
      s.entries.push_back(off);
    }
  }
  if (start >= size) return at(start, "no code");
  s.depth.assign(size, kUnseen);
  s.order.resize(size);
  std::int32_t* const depth = s.depth.data();
  std::uint32_t* const order = s.order.data();
  std::size_t reachable = 0;
  if (role == SegmentRole::kEntry) depth[0] = 0;
  for (const std::uint32_t off : s.entries) depth[off] = 0;

  // Forward pass: decode and check every instruction; prove the operand
  // depth of every reachable one. Jumps only go forward, so a target's
  // depth is known before the pass gets there, and a target that lands
  // on an operand word is caught when that word is decoded.
  const std::size_t ndeps = seg.deps.size();
  const std::size_t nstrings = seg.strings.size();
  facts.dep_uses.resize(ndeps, 0);
  std::uint64_t max_locals = 0;
  std::int32_t max_stack = 0;
  for (std::size_t pc = start; pc < size;) {
    const std::uint32_t raw = code[pc];
    if (raw >= kOpCount) return at(pc, "unknown opcode {}", raw);
    const Op op = static_cast<Op>(raw);
    const std::size_t next = pc + 1 + detail::kOpArity[raw];
    if (next > size) return at(pc, "truncated instruction");
    for (std::size_t k = pc + 1; k < next; ++k)
      if (depth[k] != kUnseen)
        return at(k, "jump target is not an instruction boundary");
    const std::uint32_t* w = code + pc;  // w[1..arity]: the operands

    std::uint64_t slots = 0;  // the instruction names slots [.., slots)
    switch (op) {
      case Op::kPushFloat:
        if (w[1] >= seg.floats.size())
          return at(pc, "float index out of range");
        break;
      case Op::kPushStr:
        if (w[1] >= nstrings) return at(pc, "string index out of range");
        break;
      case Op::kLoad:
      case Op::kStore:
      case Op::kNewChan:
        slots = std::uint64_t{w[1]} + 1;
        break;
      case Op::kImportName:
      case Op::kImportClass:
        if (w[3] >= nstrings) return at(pc, "string index out of range");
        [[fallthrough]];
      case Op::kGlobal:
      case Op::kExportName:
      case Op::kExportClass:
        if (w[2] >= nstrings) return at(pc, "string index out of range");
        slots = std::uint64_t{w[1]} + 1;
        break;
      case Op::kTrMsg:
        if (w[1] >= seg.labels.size())
          return at(pc, "label index out of range");
        break;
      case Op::kTrObj:
      case Op::kMkBlock:
        if (w[1] >= ndeps) return at(pc, "dependency index out of range");
        facts.dep_uses[w[1]] |= role_bit(
            op == Op::kTrObj ? SegmentRole::kObject : SegmentRole::kClass);
        if (op == Op::kMkBlock) slots = std::uint64_t{w[4]} + w[3];
        break;
      case Op::kJmp:
      case Op::kJmpIfFalse:
      case Op::kFork:
        if (w[1] < next || w[1] >= size)
          return at(pc, "jump target {} is not a later instruction boundary",
                    w[1]);
        break;
      default:
        break;
    }
    if (slots > kMaxLocals)
      return at(pc, "local slot {} is not below kMaxLocals", slots - 1);
    max_locals = std::max(max_locals, slots);

    const std::int32_t in = depth[pc];
    if (in != kUnseen) {
      order[reachable++] = static_cast<std::uint32_t>(pc);
      const StackEffect& fx = detail::kOpEffect[raw];
      const std::uint64_t pops =
          fx.pops + (fx.pops_operand != 0 ? std::uint64_t{w[fx.pops_operand]}
                                          : 0);
      if (pops > static_cast<std::uint64_t>(in))
        return at(pc, "operand stack underflow");
      const std::int32_t out =
          in - static_cast<std::int32_t>(pops) + fx.pushes;
      if (out > static_cast<std::int32_t>(kMaxStack))
        return at(pc, "operand stack deeper than kMaxStack");
      max_stack = std::max(max_stack, out);
      // Control arrives at `to` with `d` operands; a join must agree.
      auto flow = [&](std::size_t to, std::int32_t d) {
        if (depth[to] == kUnseen) depth[to] = d;
        return depth[to] == d;
      };
      auto join = [&](std::size_t to, std::int32_t d) {
        return at(to, "operand depth {} meets depth {} at a join",
                  static_cast<std::uint64_t>(d),
                  static_cast<std::uint64_t>(depth[to]));
      };
      if ((op == Op::kJmp || op == Op::kJmpIfFalse) && !flow(w[1], out))
        return join(w[1], out);
      if (op == Op::kFork) {
        s.forks.emplace_back(w[1], w[2]);
        // The spawned frame starts with no operands.
        if (!flow(w[1], 0)) return join(w[1], 0);
      }
      if (op != Op::kHalt && op != Op::kJmp) {
        if (next == size)
          return at(pc, "control falls off the end of the segment");
        if (!flow(next, out)) return join(next, out);
      }
    }
    pc = next;
  }

  // Backward pass, one window of 64 slots at a time: live[pc] holds the
  // slots that some path from pc reads before storing them. Every
  // successor of a reachable instruction lies later and is reachable, so
  // its entry is written before it is read.
  const std::size_t base = facts.entry_locals.size();
  facts.entry_locals.resize(base + s.entries.size(), 0);
  std::uint16_t* needs = facts.entry_locals.data() + base;
  s.live.resize(size);
  std::uint64_t* const live = s.live.data();
  for (std::uint64_t lo = 0; lo < max_locals; lo += 64) {
    for (std::size_t r = reachable; r-- > 0;) {
      const std::uint32_t pc = order[r];
      const Op op = static_cast<Op>(code[pc]);
      const std::uint32_t* w = code + pc;
      std::uint64_t out = 0;
      if (op == Op::kJmp || op == Op::kJmpIfFalse) out = live[w[1]];
      if (op != Op::kHalt && op != Op::kJmp)
        out |= live[pc + 1 + detail::kOpArity[code[pc]]];
      const SlotUse u = slot_use(op, w, lo);
      live[pc] = (out & ~u.kill) | u.gen;
    }
    auto highest = [&](std::uint32_t pc) -> std::uint64_t {  // 0 = none
      const std::uint64_t bits = live[pc];
      return bits == 0 ? 0 : lo + 64 - std::countl_zero(bits);
    };
    if (role == SegmentRole::kEntry && live[0] != 0)
      return at(0, "reads local {} that no entry provides",
                lo + std::countr_zero(live[0]));
    for (const auto& [target, nfree] : s.forks)
      if (highest(target) > nfree)
        return at(target, "fork target reads local {} but its fork captures {}",
                  highest(target) - 1, nfree);
    for (std::size_t k = 0; k < s.entries.size(); ++k)
      needs[k] = std::max(needs[k],
                          static_cast<std::uint16_t>(highest(s.entries[k])));
  }

  facts.roles |= role_bit(role);
  facts.max_stack =
      std::max(facts.max_stack, static_cast<std::uint16_t>(max_stack));
  facts.max_locals =
      std::max(facts.max_locals, static_cast<std::uint16_t>(max_locals));
  return {};
}

}  // namespace

namespace {

/// Empty `f`, keeping its vectors' capacity (callers reuse their facts).
void reset(SegmentFacts& f) {
  f.roles = 0;
  f.max_stack = f.max_locals = 0;
  f.entry_locals.clear();
  f.dep_uses.clear();
}

}  // namespace

std::vector<std::string> verify_segment(const Segment& seg, SegmentRole role,
                                        SegmentFacts* facts) {
  SegmentFacts local;
  SegmentFacts& out = facts ? *facts : local;
  reset(out);
  if (role != SegmentRole::kAny) {
    if (std::string p = verify_reading(seg, role, out); !p.empty()) {
      reset(out);
      return {p};
    }
    return {};
  }
  // Unknown role: keep the readings that verify (the machine checks the
  // reading a use needs when it uses it) — at most one table reading,
  // object before class, so entry_locals describes one table.
  std::string first;
  for (const SegmentRole r :
       {SegmentRole::kObject, SegmentRole::kClass, SegmentRole::kEntry}) {
    if (r == SegmentRole::kClass && out.roles != 0) continue;
    SegmentFacts one;
    std::string p = verify_reading(seg, r, one);
    if (!p.empty()) {
      if (r == SegmentRole::kEntry) first = std::move(p);  // most readable
      continue;
    }
    out.roles |= one.roles;
    out.max_stack = std::max(out.max_stack, one.max_stack);
    out.max_locals = std::max(out.max_locals, one.max_locals);
    out.entry_locals.insert(out.entry_locals.end(), one.entry_locals.begin(),
                            one.entry_locals.end());
    if (out.dep_uses.empty()) out.dep_uses.resize(one.dep_uses.size());
    for (std::size_t d = 0; d < one.dep_uses.size(); ++d)
      out.dep_uses[d] |= one.dep_uses[d];
  }
  if (out.roles == 0) {
    reset(out);
    return {first};
  }
  return {};
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

std::vector<std::string> verify_program(const Program& p,
                                        std::vector<SegmentFacts>* facts) {
  std::vector<std::string> out;
  const std::size_t n = p.segments.size();
  if (p.root >= n) return {"program root out of range"};
  const auto roles = classify_roles(p);
  std::vector<SegmentFacts> local;
  std::vector<SegmentFacts>& fs = facts ? *facts : local;
  fs.resize(n);  // verify_segment resets each
  for (std::size_t s = 0; s < n; ++s)
    for (auto& prob : verify_segment(p.segments[s], roles[s], &fs[s]))
      out.push_back("segment " + std::to_string(s) + " " + prob);
  if (!out.empty()) return out;
  // A dependency must verify in every role its referrers use it in.
  for (std::size_t s = 0; s < n; ++s) {
    const Segment& seg = p.segments[s];
    for (std::size_t d = 0; d < seg.deps.size(); ++d) {
      const std::uint32_t target = seg.deps[d].index;
      if (target >= n) {
        out.push_back("segment " + std::to_string(s) + " dependency " +
                      std::to_string(d) + " is not in the program");
      } else if ((fs[target].roles & fs[s].dep_uses[d]) !=
                 fs[s].dep_uses[d]) {
        out.push_back("segment " + std::to_string(target) +
                      " is not valid in the role segment " +
                      std::to_string(s) + " uses it in");
      }
    }
  }
  return out;
}

}  // namespace dityco::vm
