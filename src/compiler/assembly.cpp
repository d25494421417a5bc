#include "compiler/assembly.hpp"

#include <cctype>
#include <map>
#include <sstream>
#include <unordered_map>

#include "vm/verify.hpp"

namespace dityco::comp {

using vm::Op;
using vm::Program;
using vm::Segment;
using vm::SegmentGuid;

namespace {

enum class SegKind { kRoot, kObject, kClass, kPlain };

const char* kind_name(SegKind k) {
  switch (k) {
    case SegKind::kRoot: return "root";
    case SegKind::kObject: return "object";
    case SegKind::kClass: return "class";
    case SegKind::kPlain: return "plain";
  }
  return "?";
}

/// Each segment's kind, from how it is referenced (the verifier's
/// classification: kTrObj dependencies carry an object method table,
/// kMkBlock dependencies a class table).
std::vector<SegKind> classify(const Program& p) {
  std::vector<SegKind> kinds;
  for (const vm::SegmentRole r : vm::classify_roles(p)) {
    switch (r) {
      case vm::SegmentRole::kEntry: kinds.push_back(SegKind::kRoot); break;
      case vm::SegmentRole::kObject: kinds.push_back(SegKind::kObject); break;
      case vm::SegmentRole::kClass: kinds.push_back(SegKind::kClass); break;
      case vm::SegmentRole::kAny: kinds.push_back(SegKind::kPlain); break;
    }
  }
  return kinds;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

const std::unordered_map<std::string, Op>& op_by_name() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, Op>();
    for (std::uint32_t o = 0; o < vm::kOpCount; ++o)
      (*m)[vm::op_name(static_cast<Op>(o))] = static_cast<Op>(o);
    return m;
  }();
  return *map;
}

}  // namespace

std::string to_assembly(const Program& p) {
  const auto kinds = classify(p);
  std::ostringstream os;
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    const Segment& seg = p.segments[s];
    os << ".segment " << s << " " << kind_name(kinds[s]) << "\n";
    if (!seg.labels.empty()) {
      os << ".labels";
      for (const auto& l : seg.labels) os << " " << l;
      os << "\n";
    }
    if (!seg.strings.empty()) {
      os << ".strings";
      for (const auto& c : seg.strings) os << " " << quote(c);
      os << "\n";
    }
    if (!seg.floats.empty()) {
      os << ".floats";
      for (double f : seg.floats) {
        os << " ";
        os << std::hexfloat << f << std::defaultfloat;
      }
      os << "\n";
    }
    if (!seg.deps.empty()) {
      os << ".deps";
      for (const auto& d : seg.deps) os << " " << d.index;
      os << "\n";
    }
    std::size_t start = 0;
    if (kinds[s] == SegKind::kObject) {
      const std::uint32_t n = seg.code.at(0);
      os << ".table";
      for (std::uint32_t k = 0; k < n; ++k)
        os << " (" << seg.code.at(1 + 3 * k) << " " << seg.code.at(2 + 3 * k)
           << " " << seg.code.at(3 + 3 * k) << ")";
      os << "\n";
      start = 1 + 3 * static_cast<std::size_t>(n);
    } else if (kinds[s] == SegKind::kClass) {
      const std::uint32_t n = seg.code.at(0);
      os << ".table";
      for (std::uint32_t k = 0; k < n; ++k)
        os << " (" << seg.code.at(1 + 2 * k) << " " << seg.code.at(2 + 2 * k)
           << ")";
      os << "\n";
      start = 1 + 2 * static_cast<std::size_t>(n);
    }
    os << ".code\n";
    for (std::size_t i = start; i < seg.code.size();) {
      const Op op = static_cast<Op>(seg.code[i]);
      os << "  " << i << ": " << vm::op_name(op);
      for (int k = 0; k < vm::op_arity(op); ++k)
        os << " " << seg.code[i + 1 + static_cast<std::size_t>(k)];
      os << "\n";
      i += 1 + static_cast<std::size_t>(vm::op_arity(op));
    }
    os << ".end\n";
  }
  return os.str();
}

namespace {

class AsmParser {
 public:
  explicit AsmParser(std::string_view src) : src_(src) {}

  Program parse() {
    Program out;
    skip_ws();
    while (!done()) {
      out.segments.push_back(segment(out.segments.size()));
      skip_ws();
    }
    if (out.segments.empty()) throw CompileError("empty assembly");
    out.root = 0;
    for (std::size_t s = 0; s < out.segments.size(); ++s)
      if (kinds_.at(s) == SegKind::kRoot) out.root = static_cast<std::uint32_t>(s);
    return out;
  }

 private:
  bool done() const { return pos_ >= src_.size(); }
  char peek() const { return done() ? '\0' : src_[pos_]; }

  void skip_ws() {
    while (!done()) {
      char c = peek();
      if (c == ';') {  // comment to end of line
        while (!done() && peek() != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (!done() && !std::isspace(static_cast<unsigned char>(peek())) &&
           peek() != '(' && peek() != ')' && peek() != ';')
      ++pos_;
    if (start == pos_) throw CompileError("assembly: token expected");
    return std::string(src_.substr(start, pos_ - start));
  }

  std::uint32_t number() {
    std::string w = word();
    // Strip a trailing ':' from offset markers.
    if (!w.empty() && w.back() == ':') w.pop_back();
    try {
      return static_cast<std::uint32_t>(std::stoul(w));
    } catch (...) {
      throw CompileError("assembly: number expected, found '" + w + "'");
    }
  }

  std::string qstring() {
    skip_ws();
    if (peek() != '"') throw CompileError("assembly: string expected");
    ++pos_;
    std::string out;
    while (!done() && peek() != '"') {
      char c = src_[pos_++];
      if (c == '\\') {
        if (done()) throw CompileError("assembly: bad escape");
        char e = src_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: throw CompileError("assembly: bad escape");
        }
      } else {
        out += c;
      }
    }
    if (done()) throw CompileError("assembly: unterminated string");
    ++pos_;
    return out;
  }

  bool at_directive() {
    skip_ws();
    return peek() == '.';
  }

  Segment segment(std::size_t index) {
    if (word() != ".segment") throw CompileError("assembly: .segment expected");
    const std::uint32_t declared = number();
    if (declared != index)
      throw CompileError("assembly: segments must appear in order");
    const std::string kind = word();
    SegKind k;
    if (kind == "root") k = SegKind::kRoot;
    else if (kind == "object") k = SegKind::kObject;
    else if (kind == "class") k = SegKind::kClass;
    else if (kind == "plain") k = SegKind::kPlain;
    else throw CompileError("assembly: unknown segment kind " + kind);
    kinds_[index] = k;

    Segment seg;
    seg.guid = SegmentGuid{0, 0, static_cast<std::uint32_t>(index)};
    for (;;) {
      skip_ws();
      std::size_t mark = pos_;
      std::string dir = word();
      if (dir == ".labels") {
        while (!at_directive()) seg.labels.push_back(word());
      } else if (dir == ".strings") {
        skip_ws();
        while (peek() == '"') {
          seg.strings.push_back(qstring());
          skip_ws();
        }
      } else if (dir == ".floats") {
        while (!at_directive()) seg.floats.push_back(std::strtod(
            word().c_str(), nullptr));
      } else if (dir == ".deps") {
        while (!at_directive())
          seg.deps.push_back(SegmentGuid{0, 0, number()});
      } else if (dir == ".table") {
        skip_ws();
        while (peek() == '(') {
          ++pos_;
          std::vector<std::uint32_t> entry;
          skip_ws();
          while (peek() != ')') {
            entry.push_back(number());
            skip_ws();
          }
          ++pos_;  // ')'
          const std::size_t want = k == SegKind::kObject ? 3u : 2u;
          if (entry.size() != want)
            throw CompileError("assembly: bad table entry arity");
          table_.push_back(entry);
          skip_ws();
        }
      } else if (dir == ".code") {
        break;
      } else {
        (void)mark;
        throw CompileError("assembly: unexpected directive " + dir);
      }
    }

    // Emit the table words first.
    if (k == SegKind::kObject || k == SegKind::kClass) {
      seg.code.push_back(static_cast<std::uint32_t>(table_.size()));
      for (const auto& e : table_)
        for (std::uint32_t w : e) seg.code.push_back(w);
    }
    table_.clear();

    // Instructions until .end.
    for (;;) {
      skip_ws();
      if (peek() == '.') {
        if (word() != ".end") throw CompileError("assembly: .end expected");
        break;
      }
      std::string first = word();
      // Optional "offset:" marker.
      if (!first.empty() && first.back() == ':') first = word();
      auto it = op_by_name().find(first);
      if (it == op_by_name().end())
        throw CompileError("assembly: unknown opcode " + first);
      const Op op = it->second;
      seg.code.push_back(static_cast<std::uint32_t>(op));
      for (int a = 0; a < vm::op_arity(op); ++a)
        seg.code.push_back(number());
    }
    return seg;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::map<std::size_t, SegKind> kinds_;
  std::vector<std::vector<std::uint32_t>> table_;
};

}  // namespace

Program from_assembly(std::string_view asm_text) {
  return AsmParser(asm_text).parse();
}

}  // namespace dityco::comp
