#include "compiler/codegen.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "calculus/subst.hpp"
#include "compiler/parser.hpp"
#include "compiler/peephole.hpp"
#include "vm/verify.hpp"

namespace dityco::comp {

using calc::Abstraction;
using calc::Expr;
using calc::ExprPtr;
using calc::NameRef;
using calc::Proc;
using calc::ProcPtr;
using vm::Op;
using vm::Program;
using vm::Segment;
using vm::SegmentGuid;

namespace {

/// Incremental builder for one code segment.
class SegBuilder {
 public:
  explicit SegBuilder(std::uint32_t index) {
    seg_.guid = SegmentGuid{0, 0, index};
  }

  std::uint32_t here() const {
    return static_cast<std::uint32_t>(seg_.code.size());
  }
  void word(std::uint32_t w) { seg_.code.push_back(w); }
  void emit(Op op, std::initializer_list<std::uint32_t> ops = {}) {
    word(static_cast<std::uint32_t>(op));
    for (std::uint32_t o : ops) word(o);
  }
  /// Emit an op whose first operand will be patched later; returns the
  /// code index of that operand.
  std::uint32_t emit_patchable(Op op,
                               std::initializer_list<std::uint32_t> rest) {
    word(static_cast<std::uint32_t>(op));
    const std::uint32_t at = here();
    word(0);
    for (std::uint32_t o : rest) word(o);
    return at;
  }
  void patch(std::uint32_t at, std::uint32_t val) { seg_.code.at(at) = val; }

  std::uint32_t label(const std::string& s) {
    return pooled(label_ids_, seg_.labels, s);
  }
  std::uint32_t stringc(const std::string& s) {
    return pooled(string_ids_, seg_.strings, s);
  }
  std::uint32_t floatc(double v) {
    for (std::size_t i = 0; i < seg_.floats.size(); ++i)
      if (seg_.floats[i] == v) return static_cast<std::uint32_t>(i);
    seg_.floats.push_back(v);
    return static_cast<std::uint32_t>(seg_.floats.size() - 1);
  }
  /// Register a dependency on another program segment (by program index).
  std::uint32_t dep(std::uint32_t prog_index) {
    for (std::size_t i = 0; i < seg_.deps.size(); ++i)
      if (seg_.deps[i].index == prog_index)
        return static_cast<std::uint32_t>(i);
    seg_.deps.push_back(SegmentGuid{0, 0, prog_index});
    return static_cast<std::uint32_t>(seg_.deps.size() - 1);
  }

  void set_name(std::string n) { seg_.name = std::move(n); }

  Segment take() { return std::move(seg_); }

 private:
  std::uint32_t pooled(std::map<std::string, std::uint32_t>& ids,
                       std::vector<std::string>& pool, const std::string& s) {
    auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(pool.size());
    pool.push_back(s);
    ids[s] = id;
    return id;
  }

  Segment seg_;
  std::map<std::string, std::uint32_t> label_ids_;
  std::map<std::string, std::uint32_t> string_ids_;
};

struct Binding {
  enum class Kind { kLocal, kSibling };
  Kind kind = Kind::kLocal;
  std::uint32_t index = 0;  // local slot, or class index within the block
};

struct Ctx {
  SegBuilder* sb = nullptr;
  std::map<std::string, Binding> vars;  // names and class variables
  std::uint32_t next_slot = 0;

  std::uint32_t alloc() { return next_slot++; }
  void bind_local(const std::string& n, std::uint32_t slot) {
    vars[n] = Binding{Binding::Kind::kLocal, slot};
  }
};

class Codegen {
 public:
  Program compile(const ProcPtr& p) {
    if (auto located = calc::free_located_names(*p); !located.empty())
      throw CompileError("explicitly located identifier '" +
                         *located.begin() +
                         "' (introduce it with import instead)");
    segs_.push_back(std::make_unique<SegBuilder>(0));
    segs_[0]->set_name("main");
    Ctx root;
    root.sb = segs_[0].get();
    proc(root, p);
    Program out;
    out.root = 0;
    out.segments.reserve(segs_.size());
    for (auto& sb : segs_) out.segments.push_back(sb->take());
    return out;
  }

 private:
  std::uint32_t new_segment() {
    const auto idx = static_cast<std::uint32_t>(segs_.size());
    segs_.push_back(std::make_unique<SegBuilder>(idx));
    return idx;
  }

  // ---- captures --------------------------------------------------------

  /// Free identifiers of an abstraction body set, minus per-body binders.
  static void free_of_bodies(const std::vector<Abstraction>& abs,
                             const std::set<std::string>& minus_classes,
                             std::set<std::string>& names,
                             std::set<std::string>& classes) {
    for (const auto& a : abs) {
      auto fn = calc::free_names(*a.body);
      for (const auto& p : a.params) fn.erase(p);
      names.insert(fn.begin(), fn.end());
      auto fc = calc::free_classes(*a.body);
      for (const auto& c : minus_classes) fc.erase(c);
      classes.insert(fc.begin(), fc.end());
    }
  }

  /// Ordered capture list: names first, then classes (both sorted).
  /// Unbound free names are materialised as site-global channels at the
  /// creation site, so that shipped closures keep their lexical home —
  /// the semantic content of the σ translation.
  std::vector<std::string> capture_list(Ctx& ctx,
                                        const std::set<std::string>& names,
                                        const std::set<std::string>& classes) {
    std::vector<std::string> caps;
    for (const auto& n : names) {
      materialize_name(ctx, n);
      caps.push_back(n);
    }
    for (const auto& c : classes) {
      if (!ctx.vars.contains(c))
        throw CompileError("unbound class variable " + c);
      caps.push_back(c);
    }
    return caps;
  }

  void materialize_name(Ctx& ctx, const std::string& n) {
    if (ctx.vars.contains(n)) return;
    const std::uint32_t slot = ctx.alloc();
    ctx.sb->emit(Op::kGlobal, {slot, ctx.sb->stringc(n)});
    ctx.bind_local(n, slot);
  }

  void push_captures(Ctx& ctx, const std::vector<std::string>& caps) {
    for (const auto& c : caps) {
      const Binding& b = ctx.vars.at(c);
      if (b.kind == Binding::Kind::kLocal)
        ctx.sb->emit(Op::kLoad, {b.index});
      else
        ctx.sb->emit(Op::kLoadSibling, {b.index});
    }
  }

  static Ctx child_ctx(SegBuilder* sb, const std::vector<std::string>& caps) {
    Ctx c;
    c.sb = sb;
    for (const auto& name : caps) c.bind_local(name, c.alloc());
    return c;
  }

  // ---- identifiers -----------------------------------------------------

  void push_name(Ctx& ctx, const NameRef& r) {
    if (r.located())
      throw CompileError("located identifier " + *r.site + "." + r.name);
    materialize_name(ctx, r.name);
    const Binding& b = ctx.vars.at(r.name);
    if (b.kind != Binding::Kind::kLocal)
      throw CompileError(r.name + " is a class variable, not a name");
    ctx.sb->emit(Op::kLoad, {b.index});
  }

  void push_class(Ctx& ctx, const NameRef& r) {
    if (r.located())
      throw CompileError("located class " + *r.site + "." + r.name +
                         " (introduce it with import instead)");
    auto it = ctx.vars.find(r.name);
    if (it == ctx.vars.end())
      throw CompileError("unbound class variable " + r.name);
    if (it->second.kind == Binding::Kind::kLocal)
      ctx.sb->emit(Op::kLoad, {it->second.index});
    else
      ctx.sb->emit(Op::kLoadSibling, {it->second.index});
  }

  // ---- expressions -----------------------------------------------------

  void expr(Ctx& ctx, const ExprPtr& e) {
    std::visit(
        [&](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, Expr::IntLit>) {
            const auto u = static_cast<std::uint64_t>(n.v);
            ctx.sb->emit(Op::kPushInt,
                         {static_cast<std::uint32_t>(u & 0xffffffffu),
                          static_cast<std::uint32_t>(u >> 32)});
          } else if constexpr (std::is_same_v<T, Expr::BoolLit>) {
            ctx.sb->emit(Op::kPushBool, {n.v ? 1u : 0u});
          } else if constexpr (std::is_same_v<T, Expr::FloatLit>) {
            ctx.sb->emit(Op::kPushFloat, {ctx.sb->floatc(n.v)});
          } else if constexpr (std::is_same_v<T, Expr::StrLit>) {
            ctx.sb->emit(Op::kPushStr, {ctx.sb->stringc(n.v)});
          } else if constexpr (std::is_same_v<T, Expr::Var>) {
            push_name(ctx, n.ref);
          } else if constexpr (std::is_same_v<T, Expr::Binop>) {
            expr(ctx, n.l);
            expr(ctx, n.r);
            ctx.sb->emit(binop_op(n.op));
          } else if constexpr (std::is_same_v<T, Expr::Unop>) {
            expr(ctx, n.e);
            ctx.sb->emit(n.op == "-" ? Op::kNeg : Op::kNot);
          }
        },
        e->node);
  }

  static Op binop_op(const std::string& op) {
    if (op == "+") return Op::kAdd;
    if (op == "-") return Op::kSub;
    if (op == "*") return Op::kMul;
    if (op == "/") return Op::kDiv;
    if (op == "%") return Op::kMod;
    if (op == "<") return Op::kLt;
    if (op == "<=") return Op::kLe;
    if (op == ">") return Op::kGt;
    if (op == ">=") return Op::kGe;
    if (op == "==") return Op::kEq;
    if (op == "!=") return Op::kNe;
    if (op == "&&") return Op::kAndB;
    if (op == "||") return Op::kOrB;
    if (op == "++") return Op::kConcat;
    throw CompileError("unknown operator " + op);
  }

  void exprs(Ctx& ctx, const std::vector<ExprPtr>& es) {
    for (const auto& e : es) expr(ctx, e);
  }

  // ---- abstraction bodies into child segments ---------------------------

  /// Compile an object literal: builds the method-table segment, emits
  /// capture pushes in `ctx`, and returns (dep index, ncaptures).
  std::pair<std::uint32_t, std::uint32_t> object_segment(
      Ctx& ctx, const std::vector<Abstraction>& methods) {
    std::set<std::string> seen;
    for (const auto& m : methods)
      if (!seen.insert(m.name).second)
        throw CompileError("duplicate method label " + m.name);

    std::set<std::string> fnames, fclasses;
    free_of_bodies(methods, {}, fnames, fclasses);
    const auto caps = capture_list(ctx, fnames, fclasses);

    const std::uint32_t seg_idx = new_segment();
    SegBuilder* sb = segs_[seg_idx].get();
    std::string obj_name = "{";
    for (const auto& m : methods)
      obj_name += (obj_name.size() > 1 ? "," : "") + m.name;
    sb->set_name(obj_name + "}");
    // Method table: [nmethods, (labelidx, nparams, offset)*]
    sb->word(static_cast<std::uint32_t>(methods.size()));
    std::vector<std::uint32_t> off_at;
    for (const auto& m : methods) {
      check_params(m);
      sb->word(sb->label(m.name));
      sb->word(static_cast<std::uint32_t>(m.params.size()));
      off_at.push_back(sb->here());
      sb->word(0);
    }
    for (std::size_t k = 0; k < methods.size(); ++k) {
      sb->patch(off_at[k], sb->here());
      Ctx body = child_ctx(sb, caps);
      for (const auto& p : methods[k].params) body.bind_local(p, body.alloc());
      proc(body, methods[k].body);
    }

    push_captures(ctx, caps);
    return {ctx.sb->dep(seg_idx), static_cast<std::uint32_t>(caps.size())};
  }

  /// Compile a definition block; emits capture pushes + kMkBlock in `ctx`
  /// and binds the class names to consecutive local slots. Returns the
  /// first class slot.
  std::uint32_t def_block(Ctx& ctx, const std::vector<Abstraction>& defs) {
    std::set<std::string> cls_names;
    for (const auto& d : defs)
      if (!cls_names.insert(d.name).second)
        throw CompileError("duplicate class " + d.name);

    std::set<std::string> fnames, fclasses;
    free_of_bodies(defs, cls_names, fnames, fclasses);
    const auto caps = capture_list(ctx, fnames, fclasses);

    const std::uint32_t seg_idx = new_segment();
    SegBuilder* sb = segs_[seg_idx].get();
    std::string blk_name;
    for (const auto& d : defs)
      blk_name += (blk_name.empty() ? "" : "+") + d.name;
    sb->set_name(blk_name);
    // Class table: [nclasses, (nparams, offset)*]
    sb->word(static_cast<std::uint32_t>(defs.size()));
    std::vector<std::uint32_t> off_at;
    for (const auto& d : defs) {
      check_params(d);
      sb->word(static_cast<std::uint32_t>(d.params.size()));
      off_at.push_back(sb->here());
      sb->word(0);
    }
    for (std::size_t k = 0; k < defs.size(); ++k) {
      sb->patch(off_at[k], sb->here());
      Ctx body = child_ctx(sb, caps);
      // Sibling classes resolve through the frame's block.
      for (std::size_t j = 0; j < defs.size(); ++j)
        body.vars[defs[j].name] =
            Binding{Binding::Kind::kSibling, static_cast<std::uint32_t>(j)};
      for (const auto& p : defs[k].params) body.bind_local(p, body.alloc());
      proc(body, defs[k].body);
    }

    push_captures(ctx, caps);
    // Allocate consecutive slots for the class values.
    const std::uint32_t first = ctx.next_slot;
    ctx.next_slot += static_cast<std::uint32_t>(defs.size());
    ctx.sb->emit(Op::kMkBlock,
                 {ctx.sb->dep(seg_idx), static_cast<std::uint32_t>(caps.size()),
                  static_cast<std::uint32_t>(defs.size()), first});
    for (std::size_t j = 0; j < defs.size(); ++j)
      ctx.bind_local(defs[j].name, first + static_cast<std::uint32_t>(j));
    return first;
  }

  static void check_params(const Abstraction& a) {
    std::set<std::string> seen;
    for (const auto& p : a.params)
      if (!seen.insert(p).second)
        throw CompileError("duplicate parameter " + p + " in " + a.name);
  }

  // ---- processes -------------------------------------------------------

  /// Compile a process; the emitted code always terminates its thread.
  void proc(Ctx& ctx, const ProcPtr& p) {
    std::visit(
        [&](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, Proc::Nil>) {
            ctx.sb->emit(Op::kHalt);
          } else if constexpr (std::is_same_v<T, Proc::Par>) {
            // Spawn the right branch, continue with the left inline.
            auto fnames = calc::free_names(*n.right);
            auto fclasses = calc::free_classes(*n.right);
            const auto caps = capture_list(ctx, fnames, fclasses);
            push_captures(ctx, caps);
            const std::uint32_t at = ctx.sb->emit_patchable(
                Op::kFork, {static_cast<std::uint32_t>(caps.size())});
            proc(ctx, n.left);
            ctx.sb->patch(at, ctx.sb->here());
            Ctx right = child_ctx(ctx.sb, caps);
            proc(right, n.right);
          } else if constexpr (std::is_same_v<T, Proc::New>) {
            Ctx inner = ctx;
            for (const auto& x : n.names) {
              const std::uint32_t slot = inner.alloc();
              inner.sb->emit(Op::kNewChan, {slot});
              inner.bind_local(x, slot);
            }
            proc(inner, n.body);
          } else if constexpr (std::is_same_v<T, Proc::ExportNew>) {
            Ctx inner = ctx;
            for (const auto& x : n.names) {
              const std::uint32_t slot = inner.alloc();
              inner.sb->emit(Op::kNewChan, {slot});
              inner.sb->emit(Op::kExportName, {slot, inner.sb->stringc(x)});
              inner.bind_local(x, slot);
            }
            proc(inner, n.body);
          } else if constexpr (std::is_same_v<T, Proc::Msg>) {
            exprs(ctx, n.args);
            push_name(ctx, n.target);
            ctx.sb->emit(Op::kTrMsg,
                         {ctx.sb->label(n.label),
                          static_cast<std::uint32_t>(n.args.size())});
            ctx.sb->emit(Op::kHalt);
          } else if constexpr (std::is_same_v<T, Proc::Obj>) {
            const auto [depidx, ncaps] = object_segment(ctx, n.methods);
            push_name(ctx, n.target);
            ctx.sb->emit(Op::kTrObj, {depidx, ncaps});
            ctx.sb->emit(Op::kHalt);
          } else if constexpr (std::is_same_v<T, Proc::Inst>) {
            exprs(ctx, n.args);
            push_class(ctx, n.cls);
            ctx.sb->emit(Op::kInstOf,
                         {static_cast<std::uint32_t>(n.args.size())});
            ctx.sb->emit(Op::kHalt);
          } else if constexpr (std::is_same_v<T, Proc::Def>) {
            Ctx inner = ctx;
            def_block(inner, n.defs);
            proc(inner, n.body);
          } else if constexpr (std::is_same_v<T, Proc::ExportDef>) {
            Ctx inner = ctx;
            const std::uint32_t first = def_block(inner, n.defs);
            for (std::size_t j = 0; j < n.defs.size(); ++j)
              inner.sb->emit(Op::kExportClass,
                             {first + static_cast<std::uint32_t>(j),
                              inner.sb->stringc(n.defs[j].name)});
            proc(inner, n.body);
          } else if constexpr (std::is_same_v<T, Proc::If>) {
            expr(ctx, n.cond);
            const std::uint32_t at = ctx.sb->emit_patchable(Op::kJmpIfFalse, {});
            // Snapshot the context before the then-branch: bindings
            // materialised inside one branch's code path must not be
            // visible in the other (their defining instructions would
            // never have executed there).
            Ctx else_ctx = ctx;
            proc(ctx, n.then_p);
            ctx.sb->patch(at, ctx.sb->here());
            proc(else_ctx, n.else_p);
          } else if constexpr (std::is_same_v<T, Proc::Print>) {
            exprs(ctx, n.args);
            ctx.sb->emit(Op::kPrint,
                         {static_cast<std::uint32_t>(n.args.size())});
            proc(ctx, n.cont);
          } else if constexpr (std::is_same_v<T, Proc::ImportName>) {
            Ctx inner = ctx;
            const std::uint32_t slot = inner.alloc();
            inner.sb->emit(Op::kImportName, {slot, inner.sb->stringc(n.site),
                                             inner.sb->stringc(n.name)});
            inner.bind_local(n.name, slot);
            proc(inner, n.body);
          } else if constexpr (std::is_same_v<T, Proc::ImportClass>) {
            Ctx inner = ctx;
            const std::uint32_t slot = inner.alloc();
            inner.sb->emit(Op::kImportClass, {slot, inner.sb->stringc(n.site),
                                              inner.sb->stringc(n.name)});
            inner.bind_local(n.name, slot);
            proc(inner, n.body);
          }
        },
        p->node);
  }

  std::vector<std::unique_ptr<SegBuilder>> segs_;
};

}  // namespace

Program compile(const ProcPtr& p, bool optimize) {
  Program prog = Codegen().compile(p);
  if (optimize) peephole(prog);
  return prog;
}

Program compile_source(std::string_view src, bool optimize) {
  return compile(parse_program(src), optimize);
}

std::string disassemble(const Program& p) {
  std::ostringstream os;
  // A segment's table layout follows from how it is referenced (the
  // verifier's classification); unreferenced segments decode from 0.
  const auto roles = vm::classify_roles(p);
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    const Segment& seg = p.segments[s];
    os << "segment " << s << " (guid " << seg.guid.node << "." << seg.guid.site
       << "." << seg.guid.index << ")";
    if (!seg.deps.empty()) {
      os << " deps[";
      for (std::size_t i = 0; i < seg.deps.size(); ++i)
        os << (i ? "," : "") << seg.deps[i].index;
      os << "]";
    }
    os << "\n";
    const vm::SegmentRole role = roles[s];
    const std::size_t start =
        std::min(vm::code_start(seg, role), seg.code.size());
    if (role == vm::SegmentRole::kObject || role == vm::SegmentRole::kClass) {
      const bool object = role == vm::SegmentRole::kObject;
      const std::size_t row = object ? 3 : 2;
      for (std::size_t k = 0; (k + 1) * row < start; ++k) {
        const std::uint32_t* e = seg.code.data() + 1 + k * row;
        if (object)
          os << "  method "
             << (e[0] < seg.labels.size() ? seg.labels[e[0]] : "?") << "/"
             << e[1] << " @" << e[2] << "\n";
        else
          os << "  class " << k << "/" << e[0] << " @" << e[1] << "\n";
      }
    }
    for (std::size_t i = start; i < seg.code.size();) {
      const Op op = static_cast<Op>(seg.code[i]);
      const auto arity = static_cast<std::size_t>(vm::op_arity(op));
      os << "  " << i << ": " << vm::op_name(op);
      for (std::size_t k = 1; k <= arity && i + k < seg.code.size(); ++k)
        os << " " << seg.code[i + k];
      os << "\n";
      i += 1 + arity;
    }
  }
  return os.str();
}

}  // namespace dityco::comp
