// Peephole optimiser tests: folded programs behave identically, shrink,
// still verify, and hazardous folds (division by zero, jump targets) are
// left alone.
#include <gtest/gtest.h>

#include "calculus/reducer.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "compiler/peephole.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
#include "vm/verify.hpp"

namespace dityco::comp {
namespace {

std::vector<std::string> run_prog(const vm::Program& p) {
  vm::Machine m("m");
  m.spawn_program(p);
  m.run(10'000'000);
  EXPECT_TRUE(m.errors().empty()) << m.errors()[0];
  return m.output();
}

TEST(Peephole, FoldsConstantArithmetic) {
  auto prog = compile_source("print[1 + 2 * 3]", false);
  const std::size_t before = prog.segments[0].code.size();
  const std::size_t removed = peephole(prog);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(prog.segments[0].code.size(), before);
  EXPECT_EQ(run_prog(prog), std::vector<std::string>{"7"});
  EXPECT_TRUE(vm::verify_program(prog).empty());
}

// Folding INT64_MIN / -1 used to kill the compiler with SIGFPE; the
// folder now computes what the interpreter computes.
TEST(Peephole, FoldsInt64EdgesLikeTheInterpreter) {
  const char* src =
      "print[(0 - 9223372036854775807 - 1) / (0 - 1), "
      "(0 - 9223372036854775807 - 1) % (0 - 1), "
      "(0 - 9223372036854775807 - 1) * (0 - 1), "
      "-(0 - 9223372036854775807 - 1)]";
  auto folded = compile_source(src, false);
  EXPECT_GT(peephole(folded), 0u);
  const std::vector<std::string> want{
      "-9223372036854775808 0 -9223372036854775808 -9223372036854775808"};
  EXPECT_EQ(run_prog(folded), want);
  EXPECT_EQ(run_prog(compile_source(src, false)), want);
}

TEST(Peephole, FoldsBooleansAndComparisons) {
  auto prog = compile_source(
      "print[1 < 2, true && false, !(3 == 3), -(4 - 9)]", false);
  peephole(prog);
  EXPECT_EQ(run_prog(prog), std::vector<std::string>{"true false false 5"});
  // Everything folded: the only stack pushes left are the four constants.
  std::size_t ops = 0;
  const auto& code = prog.segments[0].code;
  for (std::size_t i = 0; i < code.size();) {
    const auto op = static_cast<vm::Op>(code[i]);
    if (op != vm::Op::kPushInt && op != vm::Op::kPushBool &&
        op != vm::Op::kPrint && op != vm::Op::kHalt)
      ++ops;
    i += 1 + static_cast<std::size_t>(vm::op_arity(op));
  }
  EXPECT_EQ(ops, 0u) << "no operators should survive";
}

TEST(Peephole, FoldsConstantConditionals) {
  auto prog = compile_source("if 1 < 2 then print[\"t\"] else print[\"e\"]",
                             false);
  const std::size_t removed = peephole(prog);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(run_prog(prog), std::vector<std::string>{"t"});
  auto prog2 = compile_source("if 2 < 1 then print[\"t\"] else print[\"e\"]",
                              false);
  peephole(prog2);
  EXPECT_EQ(run_prog(prog2), std::vector<std::string>{"e"});
}

TEST(Peephole, DivisionByZeroNotFolded) {
  auto prog = compile_source("print[1 / 0]", false);
  peephole(prog);
  vm::Machine m("m");
  m.spawn_program(prog);
  m.run(1000);
  ASSERT_EQ(m.errors().size(), 1u) << "the runtime error must be preserved";
  EXPECT_NE(m.errors()[0].find("division"), std::string::npos);
}

TEST(Peephole, VariablesNotFolded) {
  auto prog = compile_source("new c (c![5] | c?(v) = print[v + 1])", false);
  peephole(prog);
  EXPECT_EQ(run_prog(prog), std::vector<std::string>{"6"});
}

TEST(Peephole, MethodTableOffsetsRemapped) {
  // The constant in the method body shrinks the code before the second
  // method's body; its table offset must follow.
  auto prog = compile_source(
      "new c (c!a[] | c?{ a() = print[2 + 3], b() = print[\"b\"] })", false);
  peephole(prog);
  EXPECT_TRUE(vm::verify_program(prog).empty());
  EXPECT_EQ(run_prog(prog), std::vector<std::string>{"5"});
}

TEST(Peephole, ForkTargetsRemapped) {
  auto prog = compile_source("print[1 + 1] | print[2 + 2] | print[3 + 3]",
                             false);
  peephole(prog);
  EXPECT_TRUE(vm::verify_program(prog).empty());
  auto out = run_prog(prog);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"2", "4", "6"}));
}

TEST(Peephole, Idempotent) {
  auto prog = compile_source(
      "def F(n, r) = if n == 0 then r![1 * 1] else F[n - 1, r] in "
      "new o (F[2 + 3, o] | o?(v) = print[v])", false);
  peephole(prog);
  auto again = prog;
  EXPECT_EQ(peephole(again), 0u) << "second pass must find nothing";
}

// Differential property: optimised and unoptimised programs agree with
// the reference reducer on random constant-heavy expressions.
class PeepholeProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::string gen_const_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.chance(1, 3))
    return std::to_string(rng.range(-9, 9));
  const char* ops[] = {"+", "-", "*"};
  if (rng.chance(1, 5))
    return "(" + gen_const_expr(rng, depth - 1) + " / " +
           std::to_string(rng.range(1, 7)) + ")";
  return "(" + gen_const_expr(rng, depth - 1) + " " + ops[rng.below(3)] +
         " " + gen_const_expr(rng, depth - 1) + ")";
}

TEST_P(PeepholeProperty, FoldedMatchesReducer) {
  Rng rng(GetParam() * 9176);
  const std::string src = "print[" + gen_const_expr(rng, 5) + ", " +
                          gen_const_expr(rng, 4) + "]";
  calc::Reducer red;
  red.add_program("main", parse_program(src));
  red.run();

  auto prog = compile_source(src, false);
  peephole(prog);
  EXPECT_TRUE(vm::verify_program(prog).empty());
  EXPECT_EQ(run_prog(prog), red.output("main")) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeepholeProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace dityco::comp
