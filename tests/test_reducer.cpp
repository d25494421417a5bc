// Tests for the reference reducer: the paper's own examples (cell, RPC,
// applet server in both mobility styles, SETI) plus the reduction-rule
// counters and failure modes.
#include <gtest/gtest.h>

#include "calculus/reducer.hpp"
#include "compiler/parser.hpp"

namespace dityco::calc {
namespace {

using dityco::comp::parse_network;
using dityco::comp::parse_program;

Reducer::Result run_net(Reducer& red, std::string_view src) {
  for (auto& [site, prog] : parse_network(src)) red.add_program(site, prog);
  return red.run();
}

TEST(Reducer, PrintOnly) {
  Reducer red;
  auto res = run_net(red, "print[1, true, \"hi\", 2.5]");
  EXPECT_TRUE(res.quiescent);
  ASSERT_EQ(red.output("main").size(), 1u);
  EXPECT_EQ(red.output("main")[0], "1 true hi 2.5");
}

TEST(Reducer, Int64EdgesWrapInsteadOfTrapping) {
  Reducer red;
  auto res = run_net(
      red, "new x (x?{ d(a, b) = print[a / b, a % b, a * b, -a, a + a] } | "
           "x!d[0 - 9223372036854775807 - 1, 0 - 1])");
  EXPECT_TRUE(res.errors.empty()) << res.errors[0];
  ASSERT_EQ(red.output("main").size(), 1u);
  EXPECT_EQ(red.output("main")[0],
            "-9223372036854775808 0 -9223372036854775808 "
            "-9223372036854775808 0");
}

TEST(Reducer, PrintContinuationOrder) {
  Reducer red;
  run_net(red, "print[1]; print[2]; print[3]");
  EXPECT_EQ(red.output("main"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Reducer, BasicCommunication) {
  Reducer red;
  auto res = run_net(red, "new x (x!greet[41] | x?{ greet(v) = print[v + 1] })");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.counters.comm, 1u);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"42"});
}

TEST(Reducer, MessageBeforeObjectAndAfter) {
  // Order of arrival at the channel must not matter.
  Reducer r1, r2;
  run_net(r1, "new x (x![7] | x?(v) = print[v])");
  run_net(r2, "new x (x?(v) = print[v] | x![7])");
  EXPECT_EQ(r1.output("main"), r2.output("main"));
}

TEST(Reducer, PaperCellExample) {
  // Section 2: polymorphic cell, read method.
  Reducer red;
  auto res = run_net(red,
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"9"});
  EXPECT_EQ(res.counters.comm, 2u);  // read + reply
  EXPECT_EQ(res.counters.inst, 2u);  // initial Cell + recursive re-arm
}

TEST(Reducer, PolymorphicCells) {
  // The same Cell class instantiated with an integer and with a boolean.
  Reducer red;
  run_net(red,
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x, y (Cell[x, 9] | Cell[y, true] "
      "| new z (x!read[z] | z?(w) = print[w]) "
      "| new t (y!read[t] | t?(w) = print[w]))");
  std::vector<std::string> out = red.output("main");
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"9", "true"}));
}

TEST(Reducer, CellWriteReadDeterministic) {
  // Messages race in the calculus; the reference reducer is deterministic
  // (FIFO run queue, left-spine traversal): the nested `new z` block is
  // spawned before the write message executes, so `read` is enqueued at x
  // first and observes the initial value.
  Reducer red;
  run_net(red,
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x (Cell[x, 1] | x!write[5] | new z (x!read[z] | z?(w) = print[w]))");
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"1"});
}

TEST(Reducer, CellWriteThenReadCausally) {
  // Causal ordering via an acknowledged write: the read only fires after
  // the write has been consumed, so it must observe 5 in every schedule.
  Reducer red;
  auto res = run_net(red,
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u, ack) = (ack![] | Cell[self, u]) } in "
      "new x (Cell[x, 1] | new a (x!write[5, a] | a?() = "
      "new z (x!read[z] | z?(w) = print[w])))");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"5"});
}

TEST(Reducer, SharedFreeNamesAcrossProgramsAtSameSite) {
  // Free simple names are implicitly located at the site: two programs
  // submitted to the same site share them.
  Reducer red;
  red.add_program("main", parse_program("x![5]"));
  red.add_program("main", parse_program("x?(v) = print[v]"));
  auto res = red.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"5"});
}

// ---------------------------------------------------------------------
// Distribution: SHIPM / SHIPO / FETCH
// ---------------------------------------------------------------------

TEST(Reducer, RemoteProcedureCall) {
  // Section 3's RPC: two SHIPM steps (request there, reply back), two
  // communications, all reductions local to the channel's site.
  Reducer red;
  auto res = run_net(red,
      "site server { export new p in p?{ val(x, rep) = rep![x * 2] } }\n"
      "site client { import p from server in let z = p![21] in print[z] }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("client"), std::vector<std::string>{"42"});
  EXPECT_TRUE(red.output("server").empty());
  EXPECT_EQ(res.counters.shipm, 2u);
  EXPECT_EQ(res.counters.comm, 2u);
  EXPECT_EQ(res.counters.shipo, 0u);
}

TEST(Reducer, ClientBeforeServerOrderIrrelevant) {
  Reducer red;
  auto res = run_net(red,
      "site client { import p from server in let z = p![21] in print[z] }\n"
      "site server { export new p in p?{ val(x, rep) = rep![x * 2] } }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("client"), std::vector<std::string>{"42"});
}

TEST(Reducer, AppletServerCodeFetching) {
  // Section 4, first applet server: classes are fetched (FETCH) and
  // instantiated locally at the client.
  Reducer red;
  auto res = run_net(red,
      "site server { export def Applet(out) = out![7] in 0 }\n"
      "site client { import Applet from server in "
      "new p (Applet[p] | p?(v) = print[v]) }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("client"), std::vector<std::string>{"7"});
  EXPECT_EQ(res.counters.fetch, 1u);
  EXPECT_EQ(res.counters.shipm, 0u) << "fetched applet runs fully locally";
}

TEST(Reducer, FetchedCodeKeepsLexicalBindings) {
  // The fetched applet body references a channel at the server: the σ
  // translation must keep it pointing home.
  Reducer red;
  auto res = run_net(red,
      "site server { export new log in "
      "(log?(m) = print[m] | export def Applet() = log![\"ran\"] in 0) }\n"
      "site client { import Applet from server in Applet[] }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("server"), std::vector<std::string>{"ran"});
  EXPECT_EQ(res.counters.fetch, 1u);
  EXPECT_EQ(res.counters.shipm, 1u) << "log![..] ships client -> server";
}

TEST(Reducer, AppletServerCodeShipping) {
  // Section 4, second applet server: the server ships an object to a
  // client-allocated name (SHIPO).
  Reducer red;
  auto res = run_net(red,
      "site server { def AppletServer(self) = self?{ "
      "applet(p) = (p?(x) = print[x * 2] | AppletServer[self]) } in "
      "export new appletserver in AppletServer[appletserver] }\n"
      "site client { import appletserver from server in "
      "new p (appletserver!applet[p] | p![21]) }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("client"), std::vector<std::string>{"42"})
      << "the shipped applet reduces at the client site";
  EXPECT_EQ(res.counters.shipo, 1u);
  EXPECT_EQ(res.counters.shipm, 1u);  // the applet request
  EXPECT_EQ(res.counters.fetch, 0u);
}

TEST(Reducer, SetiExample) {
  // Section 4's SETI@home: install once, then the Go loop runs at the
  // client pulling chunks from the seti database.
  Reducer red;
  auto res = run_net(red,
      "site seti { new database ("
      "  def Db(self, n) = self?{ newChunk(r) = (r![n] | Db[self, n + 1]) } "
      "  in Db[database, 0] "
      "  | export def Install() = print[\"installed\"]; Go[0] "
      "    and Go(i) = if i == 3 then print[\"done\"] "
      "                else let d = database!newChunk[] in "
      "                     print[\"chunk\", d]; Go[i + 1] "
      "    in 0) }\n"
      "site client { import Install from seti in Install[] }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("client"),
            (std::vector<std::string>{"installed", "chunk 0", "chunk 1",
                                      "chunk 2", "done"}));
  EXPECT_EQ(res.counters.fetch, 1u)
      << "Install and Go are one definition block: downloaded once";
  // Each chunk pull is a request there + reply back.
  EXPECT_EQ(res.counters.shipm, 6u);
}

TEST(Reducer, FetchCountedOncePerSite) {
  Reducer red;
  auto res = run_net(red,
      "site server { export def A(out) = out![1] in 0 }\n"
      "site c1 { import A from server in "
      "new p (A[p] | A[p] | p?(v) = (print[v] | p?(w) = print[w])) }\n"
      "site c2 { import A from server in new p (A[p] | p?(v) = print[v]) }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.counters.fetch, 2u) << "one link per site, cached after";
  EXPECT_EQ(res.counters.inst, 3u);
}

TEST(Reducer, ObjectMigratesToImportedName) {
  // SHIPO via an imported name: r[s.x?M] -> s[x?Mσ].
  Reducer red;
  auto res = run_net(red,
      "site s { export new x in x![10] }\n"
      "site r { import x from s in x?(v) = print[v + 1] }");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.counters.shipo, 1u);
  // The object reduced at site s, so output appears at s.
  EXPECT_EQ(red.output("s"), std::vector<std::string>{"11"});
}

// ---------------------------------------------------------------------
// Failure modes and result reporting
// ---------------------------------------------------------------------

TEST(Reducer, StallOnMissingClassExport) {
  Reducer red;
  auto res = run_net(red, "site c { import Ghost from nowhere in Ghost[] }");
  EXPECT_FALSE(res.quiescent);
  EXPECT_TRUE(res.stalled);
}

TEST(Reducer, PendingMessageReported) {
  Reducer red;
  auto res = run_net(red, "new x x!lonely[]");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.pending_messages, 1u);
}

TEST(Reducer, PendingObjectReported) {
  Reducer red;
  auto res = run_net(red, "new x x?(v) = 0");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(res.pending_objects, 1u);
}

TEST(Reducer, MethodNotUnderstood) {
  Reducer red;
  auto res = run_net(red, "new x (x!nosuch[] | x?{ l(v) = 0 })");
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_NE(res.errors[0].find("nosuch"), std::string::npos);
  EXPECT_EQ(res.pending_objects, 1u) << "object survives a bad message";
}

TEST(Reducer, ArityMismatchReported) {
  Reducer red;
  auto res = run_net(red, "new x (x!l[1, 2] | x?{ l(v) = 0 })");
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_NE(res.errors[0].find("arity"), std::string::npos);
}

TEST(Reducer, DivisionByZeroReported) {
  Reducer red;
  auto res = run_net(red, "print[1 / 0]");
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_TRUE(red.output("main").empty());
}

TEST(Reducer, NonBooleanConditionReported) {
  Reducer red;
  auto res = run_net(red, "if 1 + 2 then 0 else 0");
  ASSERT_EQ(res.errors.size(), 1u);
}

TEST(Reducer, BudgetExhaustion) {
  Reducer red(Reducer::Config{.max_steps = 1000});
  auto res = run_net(red, "def Loop() = Loop[] in Loop[]");
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_FALSE(res.quiescent);
}

TEST(Reducer, MutualRecursionAcrossDefBlock) {
  Reducer red;
  auto res = run_net(red,
      "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
      "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
      "in new out (Even[7, out] | out?(b) = print[b])");
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"false"});
}

TEST(Reducer, ExpressionEvaluation) {
  Reducer red;
  run_net(red,
      "print[1 + 2 * 3, 10 % 3, 7 / 2, -4, 2.5 + 1, \"a\" ++ \"b\", "
      "1 < 2, 2 <= 1, true && false, true || false, !true, 3 == 3, 3 != 3]");
  ASSERT_EQ(red.output("main").size(), 1u);
  EXPECT_EQ(red.output("main")[0],
            "7 1 3 -4 3.5 ab true false false true false true false");
}

TEST(Reducer, ChannelsPrintOpaque) {
  Reducer red;
  run_net(red, "new x print[x]");
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"#chan"});
}

TEST(Reducer, RunCanBeResumed) {
  Reducer red;
  red.add_program("main", parse_program("new q 0 | x?(v) = print[v]"));
  auto r1 = red.run();
  EXPECT_TRUE(r1.quiescent);
  red.add_program("main", parse_program("x![33]"));
  auto r2 = red.run();
  EXPECT_TRUE(r2.quiescent);
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"33"});
}

}  // namespace
}  // namespace dityco::calc
