// Code segments: the unit of code mobility.
//
// The paper (section 5) requires byte-code whose "nested structure of the
// source program is preserved", allowing "the efficient dynamic selection
// of byte-code blocks that have to be moved between sites". We realise
// this with *segments*: position-independent code blocks carrying their
// own label table, string/float constant pools and a dependency list of
// other segments (nested objects and definition blocks). Shipping code
// (rules SHIPO and FETCH) serialises a segment's transitive closure;
// the receiving site dynamically links it, deduplicating by GUID.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "support/bytes.hpp"

namespace dityco::vm {

/// Globally unique code identity: assigned when a compiled program is
/// loaded into a site; preserved verbatim when the segment travels, so a
/// site never links the same code twice.
struct SegmentGuid {
  std::uint32_t node = 0;
  std::uint32_t site = 0;
  std::uint32_t index = 0;

  bool operator==(const SegmentGuid&) const = default;
  auto operator<=>(const SegmentGuid&) const = default;
};

/// The opcode table of the extended TyCO virtual machine: one row per
/// opcode, V(enumerator, mnemonic, operand words, stack effect). Every
/// opcode is one 32-bit word followed by its operand words. Jump targets
/// and code offsets are segment-relative (position independence).
/// Constant/label/dep operands index the segment's own tables, mapped to
/// site-global ids at link time. The stack effect (pops, n, pushes) pops
/// `pops` operands plus as many as operand word `n` says (n is 1-based,
/// 0 for none), then pushes `pushes`. `Op`, `op_name`, `op_arity`,
/// `op_effect` and `kOpCount` are generated from this list, so the
/// verifier's depth analysis reads the same table the interpreter is
/// written against, and adding an opcode touches this table (and the
/// interpreter's switch) only.
#define DITYCO_OPCODES(V)                                                   \
  V(kHalt, "halt", 0, (0, 0, 0))          /* end of thread */              \
  V(kPushInt, "pushi", 2, (0, 0, 1))      /* [lo, hi] int64 immediate */   \
  V(kPushFloat, "pushf", 1, (0, 0, 1))    /* [fidx] float constant */      \
  V(kPushStr, "pushs", 1, (0, 0, 1))      /* [sidx] string constant */     \
  V(kPushBool, "pushb", 1, (0, 0, 1))     /* [0|1] */                      \
  V(kLoad, "load", 1, (0, 0, 1))          /* [slot] push locals[slot] */   \
  V(kStore, "store", 1, (1, 0, 0))        /* [slot] locals[slot] = pop */  \
  /* Builtin expression operators (on the operand stack). */              \
  V(kAdd, "add", 0, (2, 0, 1))                                              \
  V(kSub, "sub", 0, (2, 0, 1))                                              \
  V(kMul, "mul", 0, (2, 0, 1))                                              \
  V(kDiv, "div", 0, (2, 0, 1))                                              \
  V(kMod, "mod", 0, (2, 0, 1))                                              \
  V(kLt, "lt", 0, (2, 0, 1))                                                \
  V(kLe, "le", 0, (2, 0, 1))                                                \
  V(kGt, "gt", 0, (2, 0, 1))                                                \
  V(kGe, "ge", 0, (2, 0, 1))                                                \
  V(kEq, "eq", 0, (2, 0, 1))                                                \
  V(kNe, "ne", 0, (2, 0, 1))                                                \
  V(kAndB, "and", 0, (2, 0, 1))                                             \
  V(kOrB, "or", 0, (2, 0, 1))                                               \
  V(kConcat, "concat", 0, (2, 0, 1))                                        \
  V(kNeg, "neg", 0, (1, 0, 1))                                              \
  V(kNot, "not", 0, (1, 0, 1))                                              \
  V(kJmp, "jmp", 1, (0, 0, 0))            /* [target] */                   \
  V(kJmpIfFalse, "jmpf", 1, (1, 0, 0))    /* [target] pops a bool */       \
  V(kNewChan, "newc", 1, (0, 0, 0))       /* [slot] new channel */         \
  /* [slot, name_sidx] site-wide named channel (free names are     */     \
  /* implicitly located at the site)                               */     \
  V(kGlobal, "global", 2, (0, 0, 0))                                        \
  V(kTrMsg, "trmsg", 2, (1, 2, 0))        /* [labelidx, nargs] */          \
  V(kTrObj, "trobj", 2, (1, 2, 0))        /* [depidx, nfree] */            \
  V(kInstOf, "instof", 1, (1, 1, 0))      /* [nargs] class, then args */   \
  V(kFork, "fork", 2, (0, 2, 0))          /* [target, nfree] */            \
  V(kMkBlock, "mkblock", 4, (0, 2, 0))    /* [depidx, nfree, ncls, dst] */ \
  V(kLoadSibling, "loadsib", 1, (0, 0, 1)) /* [classidx] block sibling */  \
  V(kPrint, "print", 1, (0, 1, 0))        /* [nargs] */                    \
  V(kExportName, "exportn", 2, (0, 0, 0)) /* [slot, name_sidx] */          \
  V(kExportClass, "exportc", 2, (0, 0, 0)) /* [slot, name_sidx] */         \
  V(kImportName, "importn", 3, (0, 0, 0)) /* [dst, site, name] parks */    \
  V(kImportClass, "importc", 3, (0, 0, 0)) /* [dst, site, name] parks */

enum class Op : std::uint32_t {
#define DITYCO_OP_ENUM(id, mnemonic, arity, effect) id,
  DITYCO_OPCODES(DITYCO_OP_ENUM)
#undef DITYCO_OP_ENUM
};

/// An opcode's operand-stack effect (see DITYCO_OPCODES).
struct StackEffect {
  std::uint8_t pops = 0;
  std::uint8_t pops_operand = 0;  // 1-based operand word adding pops; 0 none
  std::uint8_t pushes = 0;
};

namespace detail {
inline constexpr std::uint8_t kOpArity[] = {
#define DITYCO_OP_ARITY(id, mnemonic, arity, effect) arity,
    DITYCO_OPCODES(DITYCO_OP_ARITY)
#undef DITYCO_OP_ARITY
};
inline constexpr const char* kOpName[] = {
#define DITYCO_OP_NAME(id, mnemonic, arity, effect) mnemonic,
    DITYCO_OPCODES(DITYCO_OP_NAME)
#undef DITYCO_OP_NAME
};
inline constexpr StackEffect kOpEffect[] = {
#define DITYCO_OP_EFFECT_ROW(pops, operand, pushes) {pops, operand, pushes},
#define DITYCO_OP_EFFECT(id, mnemonic, arity, effect) \
  DITYCO_OP_EFFECT_ROW effect
    DITYCO_OPCODES(DITYCO_OP_EFFECT)
#undef DITYCO_OP_EFFECT
#undef DITYCO_OP_EFFECT_ROW
};
}  // namespace detail

/// Number of opcodes; raw words >= kOpCount are not instructions.
inline constexpr auto kOpCount =
    static_cast<std::uint32_t>(std::size(detail::kOpArity));

/// Number of operand words following each opcode (0 for a raw word that
/// is no opcode).
inline int op_arity(Op op) {
  const auto i = static_cast<std::uint32_t>(op);
  return i < kOpCount ? detail::kOpArity[i] : 0;
}
inline const char* op_name(Op op) {
  const auto i = static_cast<std::uint32_t>(op);
  return i < kOpCount ? detail::kOpName[i] : "?";
}
/// Precondition: op < kOpCount.
inline const StackEffect& op_effect(Op op) {
  return detail::kOpEffect[static_cast<std::uint32_t>(op)];
}

/// A position-independent code block.
///
/// Object segments start with a method table:
///   [nmethods, (labelidx, nparams, offset)*]
/// Definition-block segments start with a class table:
///   [nclasses, (nparams, offset)*]
/// Plain fork/root segments start directly with code at offset 0.
struct Segment {
  SegmentGuid guid;
  std::vector<std::uint32_t> code;
  std::vector<std::string> labels;   // method labels (seg-local index)
  std::vector<std::string> strings;  // string constants
  std::vector<double> floats;        // float constants
  std::vector<SegmentGuid> deps;     // referenced segments (seg-local index)
  // Debug-only: the source-level definition(s) this segment compiles
  // (e.g. "Serve" for a def block, "{get}" for an object). NOT
  // serialized — shipped code arrives anonymous and the profiler falls
  // back to a slot label; the wire layout stays pinned by test_net.
  std::string name;

  void serialize(Writer& w) const;
  static Segment deserialize(Reader& r);
};

/// A compiled program: the output of the code generator. `root` is the
/// index of the segment whose offset 0 is the program entry point.
/// Segment GUIDs are placeholders until the program is loaded into a site
/// (which re-stamps them with its own identity).
struct Program {
  std::vector<Segment> segments;
  std::uint32_t root = 0;

  /// Total byte-code size (words * 4 + constant pools), the compactness
  /// metric of bench C1.
  std::size_t byte_size() const;
};

}  // namespace dityco::vm
