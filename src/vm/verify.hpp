// Byte-code verification: the one gate between code and the interpreter.
//
// Code segments arrive over the network (rules SHIPO and FETCH), and
// compiled or hand-assembled programs are loaded at run time, so every
// segment is verified once, before it is linked, and then runs without
// per-instruction checks. One dense forward pass decodes the instruction
// stream, checks constant-pool, label and dependency indices and
// method/class tables, and proves the operand depth at every reachable
// instruction (no underflow, one depth at each join, at most kMaxStack);
// control may not fall off the end and jumps only go forward. One
// backward pass over the reachable instructions finds the locals each
// entry reads before storing them: a root may read none, a fork target
// no more than its fork captures, and each table entry's count is
// recorded so the machine can check env + args against it once per
// reduction. Every slot named is below kMaxLocals. What a verified
// segment cannot make the interpreter do is read or write outside its
// code, its constant pools, its frame's locals or the operand buffer;
// value tags stay dynamic (DESIGN.md "Verification").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/segment.hpp"

namespace dityco::vm {

/// How a segment is entered, which determines its leading table.
enum class SegmentRole {
  kEntry,   // root: code from offset 0, given no locals
  kObject,  // starts with [nmethods, (labelidx, nparams, offset)*]
  kClass,   // starts with [nclasses, (nparams, offset)*]
  kAny,     // role unknown: accept any consistent reading
};

/// The bit of a (known) role in SegmentFacts::roles and dep_uses.
constexpr std::uint8_t role_bit(SegmentRole r) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(r));
}

/// Deepest operand stack and most locals a verified segment may use.
inline constexpr std::uint32_t kMaxStack = 1024;
inline constexpr std::uint32_t kMaxLocals = 1024;

/// What verification proved about a segment, for the linker.
struct SegmentFacts {
  std::uint8_t roles = 0;        // role_bit of every reading that verified
  std::uint16_t max_stack = 0;   // deepest operand stack, any reading
  std::uint16_t max_locals = 0;  // 1 + highest slot named, any reading
  /// Locals each entry of the (one) verified table reading must be given.
  std::vector<std::uint16_t> entry_locals;
  /// Per dependency, the role_bits its referencing instructions use it
  /// in (trobj: object, mkblock: class; 0 if never referenced).
  std::vector<std::uint8_t> dep_uses;
};

/// Verify one segment in `role` (kAny: the entry reading and the first
/// table reading that verify, object before class; valid if one does).
/// Returns the problems (empty = valid) and, when valid and `facts` is
/// given, fills it.
std::vector<std::string> verify_segment(const Segment& seg, SegmentRole role,
                                        SegmentFacts* facts = nullptr);

/// Verify a whole compiled program: root as entry, dependencies in the
/// role their referencing instructions use them in (which the target
/// must verify in), unreferenced segments in any reading. Fills one
/// SegmentFacts per segment when `facts` is given.
std::vector<std::string> verify_program(
    const Program& p, std::vector<SegmentFacts>* facts = nullptr);

/// Classify each segment of a compiled program by how it is referenced
/// (kTrObj dependency -> object, kMkBlock dependency -> class, root ->
/// entry; unreferenced -> kAny). Shared by the verifier, the
/// disassembler and the peephole optimiser.
std::vector<SegmentRole> classify_roles(const Program& p);

/// Offset of the first instruction in a segment under the given role
/// (skips the object/class table).
std::size_t code_start(const Segment& seg, SegmentRole role);

}  // namespace dityco::vm
