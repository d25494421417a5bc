// VM tests: compile-and-run of local programs, interpreter semantics,
// stats, error handling, segment serialisation, and a fake backend for
// the park/resume import machinery.
#include <gtest/gtest.h>

#include <algorithm>

#include "calculus/reducer.hpp"
#include "compiler/assembly.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "vm/machine.hpp"

namespace dityco::vm {
namespace {

using comp::compile_source;

/// Run a single-site program to completion; returns the machine.
Machine run_local(std::string_view src, std::uint64_t budget = 1'000'000) {
  Machine m("main");
  m.spawn_program(compile_source(src));
  m.run(budget);
  return m;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Vm, PrintLiterals) {
  auto m = run_local("print[1, true, \"hi\", 2.5]");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"1 true hi 2.5"});
}

// INT64_MIN / -1 and INT64_MIN % -1 used to raise SIGFPE, and a message
// can carry the operands; + - * and unary - wrap in two's complement.
TEST(Vm, Int64EdgesWrapInsteadOfTrapping) {
  auto m = run_local(
      "new x (x?{ d(a, b) = print[a / b, a % b, a * b, a - 1, -a, a + a] } "
      "| x!d[0 - 9223372036854775807 - 1, 0 - 1])");
  EXPECT_TRUE(m.errors().empty()) << m.errors()[0];
  EXPECT_EQ(m.output(),
            std::vector<std::string>{"-9223372036854775808 0 "
                                     "-9223372036854775808 "
                                     "9223372036854775807 "
                                     "-9223372036854775808 0"});
  auto z = run_local("new x (x?{ d(a, b) = print[a / b] } | x!d[1, 0])");
  ASSERT_EQ(z.errors().size(), 1u);
  EXPECT_NE(z.errors()[0].find("division by zero"), std::string::npos);
}

TEST(Vm, PrintContinuation) {
  auto m = run_local("print[1]; print[2]; print[3]");
  EXPECT_EQ(m.output(), (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Vm, Arithmetic) {
  auto m = run_local(
      "print[1 + 2 * 3, 10 % 3, 7 / 2, -4, 2.5 + 1, \"a\" ++ \"b\", "
      "1 < 2, 2 <= 1, true && false, true || false, !true, 3 == 3, 3 != 3]");
  ASSERT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output()[0],
            "7 1 3 -4 3.5 ab true false false true false true false");
}

TEST(Vm, LargeIntImmediates) {
  auto m = run_local("print[1234567890123, -9876543210]");
  EXPECT_EQ(m.output(), std::vector<std::string>{"1234567890123 -9876543210"});
}

TEST(Vm, BasicCommunication) {
  auto m = run_local("new x (x!greet[41] | x?{ greet(v) = print[v + 1] })");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"42"});
  EXPECT_EQ(m.stats().comm_reductions, 1u);
}

TEST(Vm, ObjectBeforeMessage) {
  auto m = run_local("new x (x?(v) = print[v] | x![5])");
  EXPECT_EQ(m.output(), std::vector<std::string>{"5"});
}

TEST(Vm, MethodSelection) {
  auto m = run_local(
      "new x (x!b[2] | x?{ a(v) = print[\"a\", v], b(v) = print[\"b\", v] })");
  EXPECT_EQ(m.output(), std::vector<std::string>{"b 2"});
}

TEST(Vm, PaperCellExample) {
  auto m = run_local(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"9"});
  EXPECT_EQ(m.stats().inst_reductions, 2u);
  EXPECT_EQ(m.stats().comm_reductions, 2u);
}

TEST(Vm, PolymorphicCells) {
  auto m = run_local(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x, y (Cell[x, 9] | Cell[y, true] "
      "| new z (x!read[z] | z?(w) = print[w]) "
      "| new t (y!read[t] | t?(w) = print[w]))");
  EXPECT_EQ(sorted(m.output()), (std::vector<std::string>{"9", "true"}));
}

TEST(Vm, MutualRecursion) {
  auto m = run_local(
      "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
      "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
      "in new out (Even[8, out] | out?(b) = print[b])");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"true"});
  EXPECT_EQ(m.stats().inst_reductions, 9u);
}

TEST(Vm, NestedObjectsCaptureEnvironment) {
  auto m = run_local(
      "new a, b (a![10] | a?(x) = b?{ get(r) = r![x * x] } | "
      "new r (b!get[r] | r?(v) = print[v]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"100"});
}

TEST(Vm, SiblingClassFromNestedObject) {
  // Cell's method body instantiates the enclosing class from inside an
  // object: the class value is captured into the object closure.
  auto m = run_local(
      "def Count(self, n) = self?{ tick(r) = (r![n] | Count[self, n + 1]) } "
      "in new c (Count[c, 0] | "
      "new r1 (c!tick[r1] | r1?(a) = new r2 (c!tick[r2] | r2?(b) = "
      "print[a, b])))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"0 1"});
}

TEST(Vm, FreeNamesAreSiteGlobals) {
  Machine m("main");
  m.spawn_program(compile_source("x![5]"));
  m.spawn_program(compile_source("x?(v) = print[v]"));
  m.run(10'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"5"});
}

TEST(Vm, IoPortFeedsRunningPrograms) {
  // The paper's per-site I/O port: users provide data to running
  // programs. The program listens on the free name `io`; the host
  // injects values into it.
  Machine m("main");
  m.spawn_program(compile_source(
      "def Echo(self) = self?{ val(v) = (print[\"in:\", v] | Echo[self]) } "
      "in Echo[io]"));
  m.run(10'000);
  EXPECT_TRUE(m.output().empty());
  m.io_send("io", "val", {Value::make_int(7)});
  m.io_send("io", "val", {Value::make_str(m.intern_string("hello"))});
  m.run(10'000);
  EXPECT_EQ(m.output(), (std::vector<std::string>{"in: 7", "in: hello"}));
}

TEST(Vm, IoPortCreatesChannelWhenProgramNotYetListening) {
  Machine m("main");
  m.io_send("io", "val", {Value::make_bool(true)});
  m.spawn_program(compile_source("io?(v) = print[v]"));
  m.run(10'000);
  EXPECT_EQ(m.output(), std::vector<std::string>{"true"});
}

TEST(Vm, IfBranchScopes) {
  // Bindings materialised in one branch must not corrupt the other.
  auto m = run_local(
      "if 1 < 2 then (new a (a![1] | a?(v) = print[\"t\", v])) "
      "else (new b (b![2] | b?(v) = print[\"e\", v]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"t 1"});
}

TEST(Vm, DeepParFanout) {
  // Three messages race toward a chain of ephemeral objects; each object
  // consumes exactly one message (objects are linear in TyCO).
  auto m = run_local(
      "new x (x?{ v(a) = (print[a] | x?{ v(b) = (print[b] | x?{ v(c) = 0 }) "
      "}) } | x!v[1] | x!v[2] | x!v[3])");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output().size(), 2u);
  auto out = sorted(m.output());
  EXPECT_TRUE(out == (std::vector<std::string>{"1", "2"}) ||
              out == (std::vector<std::string>{"1", "3"}) ||
              out == (std::vector<std::string>{"2", "3"}));
}

// ---- counters / introspection ----------------------------------------

TEST(Vm, PendingCountsTracked) {
  auto m = run_local("new x (x![1] | x![2] | new y y?(v) = 0)");
  EXPECT_EQ(m.pending_messages(), 2u);
  EXPECT_EQ(m.pending_objects(), 1u);
  EXPECT_TRUE(m.idle());
}

TEST(Vm, InstructionBudgetPreemption) {
  Machine m("main");
  m.spawn_program(compile_source("def Loop(n) = Loop[n + 1] in Loop[0]"));
  const auto ran = m.run(1000);
  EXPECT_LE(ran, 1000u);
  EXPECT_FALSE(m.idle()) << "loop must survive preemption";
  m.run(1000);
  EXPECT_FALSE(m.idle());
  EXPECT_GE(m.stats().inst_reductions, 10u);
}

TEST(Vm, ForkCounted) {
  auto m = run_local("print[1] | print[2] | print[3]");
  EXPECT_EQ(m.stats().forks, 2u);
  EXPECT_EQ(m.stats().prints, 3u);
}

// ---- error handling ----------------------------------------------------

TEST(Vm, MethodNotUnderstood) {
  auto m = run_local("new x (x!nosuch[] | x?{ l(v) = 0 })");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("nosuch"), std::string::npos);
  EXPECT_EQ(m.pending_objects(), 1u);
}

TEST(Vm, ArityMismatch) {
  auto m = run_local("new x (x!l[1, 2] | x?{ l(v) = 0 })");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("arity"), std::string::npos);
}

TEST(Vm, DivisionByZero) {
  auto m = run_local("print[1 / 0]");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_TRUE(m.output().empty());
}

TEST(Vm, MessageToNonChannel) {
  auto m = run_local("new x (x![1] | x?(v) = v!go[])");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("target"), std::string::npos);
}

TEST(Vm, RemoteWithoutBackendErrors) {
  auto m = run_local("import p from elsewhere in p![1]");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("backend"), std::string::npos);
}

TEST(CompileErrors, UnboundClass) {
  EXPECT_THROW(compile_source("Ghost[1]"), comp::CompileError);
}

TEST(CompileErrors, LocatedIdentifierRejected) {
  EXPECT_THROW(compile_source("s.x![1]"), comp::CompileError);
  EXPECT_THROW(compile_source("s.X[1]"), comp::CompileError);
}

TEST(CompileErrors, DuplicateMethodLabel) {
  EXPECT_THROW(compile_source("new x x?{ l(a) = 0, l(b) = 0 }"),
               comp::CompileError);
}

TEST(CompileErrors, DuplicateClass) {
  EXPECT_THROW(compile_source("def A() = 0 and A() = 0 in 0"),
               comp::CompileError);
}

TEST(CompileErrors, DuplicateParam) {
  EXPECT_THROW(compile_source("def A(x, x) = 0 in 0"), comp::CompileError);
}

// ---- fake backend: park/resume and export routing ----------------------

class FakeBackend : public RemoteBackend {
 public:
  void ship_message(Machine&, const NetRef&, const std::string&,
                    std::vector<Value>) override {
    ++ships;
  }
  void ship_object(Machine&, const NetRef&, std::uint32_t,
                   std::vector<Value>) override {
    ++ships;
  }
  void fetch_instantiate(Machine&, const NetRef&, std::vector<Value>) override {
    ++fetches;
  }
  void export_name(Machine& m, const std::string& name, Value chan) override {
    exported[name] = m.export_chan(chan.idx);
  }
  void export_class(Machine& m, const std::string& name, Value cls) override {
    exported[name] = m.export_class_value(cls);
  }
  void import_name(Machine& m, const std::string&, const std::string& name,
                   std::uint64_t token) override {
    if (synchronous) {
      // Resolve to the locally exported channel (loopback).
      m.resume_import(token, m.resolve_exported_chan(exported.at(name)));
    } else {
      pending.emplace_back(token, name);
    }
  }
  void import_class(Machine& m, const std::string& s, const std::string& n,
                    std::uint64_t t) override {
    import_name(m, s, n, t);
  }

  bool synchronous = true;
  int ships = 0;
  int fetches = 0;
  std::map<std::string, std::uint64_t> exported;
  std::vector<std::pair<std::uint64_t, std::string>> pending;
};

TEST(VmBackend, LoopbackImportExport) {
  FakeBackend be;
  Machine m("main", 0, 0, &be);
  m.spawn_program(compile_source(
      "export new p in p?{ val(x, r) = r![x * 2] } | "
      "import p from main in let z = p![21] in print[z]"));
  m.run(100'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"42"});
}

TEST(VmBackend, AsynchronousImportParksFrame) {
  FakeBackend be;
  be.synchronous = false;
  Machine m("main", 0, 0, &be);
  m.spawn_program(compile_source(
      "export new p in p?{ val(r) = r![7] } | "
      "import p from main in let z = p![] in print[z]"));
  m.run(100'000);
  EXPECT_TRUE(m.idle());
  EXPECT_EQ(m.parked(), 1u);
  ASSERT_EQ(be.pending.size(), 1u);
  // Deliver the lookup reply; the frame resumes and completes the RPC.
  m.resume_import(be.pending[0].first,
                  m.resolve_exported_chan(be.exported.at("p")));
  m.run(100'000);
  EXPECT_EQ(m.parked(), 0u);
  EXPECT_EQ(m.output(), std::vector<std::string>{"7"});
}

TEST(VmBackend, ShipMessageInvokedForNetRef) {
  FakeBackend be;
  Machine m("main", 0, 0, &be);
  const std::uint32_t ref =
      m.intern_netref(NetRef{NetRef::Kind::kChan, 9, 9, 1});
  Frame f;
  f.seg = m.load_program(compile_source("x!go[1]"));
  f.locals.push_back(Value::make_netref(ref));
  // Overwrite the global x binding: run the frame at pc past kGlobal.
  // Simpler: send via channel_send path is local; instead check that a
  // netref-valued target routes to the backend by delivering it through
  // an object parameter.
  Machine m2("main", 0, 0, &be);
  m2.spawn_program(compile_source("new c (c?(t) = t!go[1])"));
  m2.run(1000);
  const std::uint32_t ref2 =
      m2.intern_netref(NetRef{NetRef::Kind::kChan, 9, 9, 1});
  // Feed the netref to the waiting object via the exported channel path.
  // The object waits at channel c (index 0 in the heap).
  m2.channel_send(0, m2.intern_label("val"),
                  {Value::make_netref(ref2)});
  m2.run(1000);
  EXPECT_EQ(be.ships, 1);
  EXPECT_TRUE(m2.errors().empty());
}

// ---- channel queues ------------------------------------------------------

/// An object segment (program slot 1) whose one method go(v) prints
/// [tag, v], `tag` being the object's one captured value.
constexpr const char* kTaggedObject =
    ".segment 0 root\n"
    ".code\n"
    "  halt\n"
    ".end\n"
    ".segment 1 object\n"
    ".labels go\n"
    ".table (0 1 4)\n"
    ".code\n"
    "  4: load 0\n"
    "  load 1\n"
    "  print 2\n"
    "  halt\n"
    ".end\n";

/// One machine, one channel, and tagged objects to put on it.
struct QueueRig {
  Machine m{"queues"};
  std::uint32_t obj_seg = 0;
  std::uint32_t go = 0;
  std::uint32_t chan = 0;

  QueueRig() {
    obj_seg = m.load_program(comp::from_assembly(kTaggedObject)) + 1;
    go = m.intern_label("go");
    chan = m.new_channel();
  }
  void send(std::int64_t v) { m.channel_send(chan, go, {Value::make_int(v)}); }
  void recv(std::int64_t tag) {
    m.channel_recv(chan, ObjClosure{obj_seg, {Value::make_int(tag)}});
  }
  std::vector<std::string> drain() {
    m.run(1'000'000);
    return m.output();
  }
};

TEST(ChannelQueue, PendingMessagesServedInFifoOrder) {
  QueueRig q;
  for (int v = 1; v <= 5; ++v) q.send(v);
  EXPECT_EQ(q.m.pending_messages(), 5u);
  EXPECT_EQ(q.m.pending_objects(), 0u);
  for (int t = 1; t <= 5; ++t) {
    q.recv(10 * t);
    EXPECT_EQ(q.m.pending_messages(), static_cast<std::uint64_t>(5 - t));
  }
  EXPECT_EQ(q.drain(), (std::vector<std::string>{"10 1", "20 2", "30 3",
                                                 "40 4", "50 5"}));
  EXPECT_EQ(q.m.pending_messages(), 0u);
  EXPECT_EQ(q.m.pending_objects(), 0u);
  EXPECT_TRUE(q.m.errors().empty());
}

TEST(ChannelQueue, PendingObjectsServedInFifoOrder) {
  QueueRig q;
  for (int t = 1; t <= 5; ++t) q.recv(10 * t);
  EXPECT_EQ(q.m.pending_objects(), 5u);
  for (int v = 1; v <= 5; ++v) {
    q.send(v);
    EXPECT_EQ(q.m.pending_objects(), static_cast<std::uint64_t>(5 - v));
  }
  EXPECT_EQ(q.drain(), (std::vector<std::string>{"10 1", "20 2", "30 3",
                                                 "40 4", "50 5"}));
  EXPECT_EQ(q.m.pending_messages(), 0u);
}

TEST(ChannelQueue, LongQueueKeepsOrderThroughCompaction) {
  // 40 objects, 35 consumed, 10 more queued behind the 5 left, then all
  // consumed: the consumed prefix is compacted away on the way.
  QueueRig q;
  for (int t = 0; t < 40; ++t) q.recv(t);
  for (int v = 0; v < 35; ++v) q.send(v);
  EXPECT_EQ(q.m.pending_objects(), 5u);
  for (int t = 40; t < 50; ++t) q.recv(t);
  EXPECT_EQ(q.m.pending_objects(), 15u);
  for (int v = 35; v < 50; ++v) q.send(v);
  EXPECT_EQ(q.m.pending_objects(), 0u);
  std::vector<std::string> want;
  for (int i = 0; i < 50; ++i)
    want.push_back(std::to_string(i) + " " + std::to_string(i));
  EXPECT_EQ(q.drain(), want);
}

TEST(ChannelQueue, MismatchPutsTheObjectBackAtTheHead) {
  QueueRig q;
  q.recv(10);
  q.recv(20);
  q.recv(30);
  // Arity mismatch: go/1 receives two arguments.
  q.m.channel_send(q.chan, q.go, {Value::make_int(1), Value::make_int(2)});
  ASSERT_EQ(q.m.errors().size(), 1u);
  EXPECT_NE(q.m.errors()[0].find("arity"), std::string::npos);
  EXPECT_EQ(q.m.pending_objects(), 3u);
  q.send(5);  // still served by the first object
  EXPECT_EQ(q.m.pending_objects(), 2u);
  // Method not understood.
  q.m.channel_send(q.chan, q.m.intern_label("nosuch"), {Value::make_int(1)});
  ASSERT_EQ(q.m.errors().size(), 2u);
  EXPECT_NE(q.m.errors()[1].find("nosuch"), std::string::npos);
  EXPECT_EQ(q.m.pending_objects(), 2u);
  EXPECT_EQ(q.m.pending_messages(), 0u);
  q.send(6);  // the second object is still first in line
  q.send(7);
  EXPECT_EQ(q.drain(), (std::vector<std::string>{"10 5", "20 6", "30 7"}));
  EXPECT_EQ(q.m.pending_objects(), 0u);
}

TEST(ChannelQueue, FreedChannelIsReusedWithoutStaleEntries) {
  QueueRig q;
  q.send(1);
  q.send(2);
  EXPECT_EQ(q.m.pending_messages(), 2u);
  // Nothing references the channel: the collection frees it and its
  // queued messages.
  EXPECT_EQ(q.m.gc().channels_freed, 1u);
  EXPECT_EQ(q.m.pending_messages(), 0u);
  ASSERT_EQ(q.m.new_channel(), q.chan) << "the freed slot is reused";
  q.recv(10);
  EXPECT_EQ(q.m.pending_objects(), 1u);
  EXPECT_EQ(q.m.pending_messages(), 0u);
  EXPECT_TRUE(q.drain().empty()) << "a stale message met the new object";

  // The same the other way round: queued objects die with the channel.
  EXPECT_EQ(q.m.gc().channels_freed, 1u);
  EXPECT_EQ(q.m.pending_objects(), 0u);
  ASSERT_EQ(q.m.new_channel(), q.chan);
  q.send(3);
  EXPECT_EQ(q.m.pending_messages(), 1u);
  EXPECT_EQ(q.m.pending_objects(), 0u);
  EXPECT_TRUE(q.drain().empty()) << "a stale object met the new message";
}

// ---- operands of frames outside the interpreter survive gc() -------------

/// Object segment (program slot 1): go(v) prints v + 100.
constexpr const char* kPlus100Object =
    ".segment 1 object\n"
    ".labels go\n"
    ".table (0 1 4)\n"
    ".code\n"
    "  4: load 0\n"
    "  pushi 100 0\n"
    "  add\n"
    "  print 1\n"
    "  halt\n"
    ".end\n";

TEST(VmGc, PreemptedFrameKeepsOperandOnlyChannelAlive) {
  const std::string text = std::string(
      ".segment 0 root\n"
      ".labels go\n"
      ".deps 1\n"
      ".code\n"
      "  newc 0\n"
      "  load 0\n"
      "  load 0\n"
      "  newc 0\n"        // slot 0 := d; c is left on the operand stack only
      "  trobj 0 0\n"     // resumes here: an object at c
      "  store 1\n"       // slot 1 := c
      "  newc 2\n"        // must not get c's slot
      "  load 1\n"
      "  load 2\n"
      "  eq\n"
      "  print 1\n"
      "  pushi 42 0\n"
      "  load 1\n"
      "  trmsg 0 1\n"     // go(42) at c
      "  halt\n"
      ".end\n") + kPlus100Object;
  Machine m("gc");
  m.spawn_program(comp::from_assembly(text));
  ASSERT_EQ(m.run(4), 4u);
  ASSERT_EQ(m.runnable(), 1u) << "preempted, not finished";
  EXPECT_EQ(m.gc().channels_freed, 0u);
  EXPECT_EQ(m.live_channels(), 2u);
  m.run(1000);
  EXPECT_TRUE(m.errors().empty()) << m.errors()[0];
  EXPECT_EQ(m.output(), (std::vector<std::string>{"false", "142"}));
}

TEST(VmGc, ParkedFrameKeepsOperandOnlyChannelAlive) {
  const std::string text = std::string(
      ".segment 0 root\n"
      ".labels go\n"
      ".strings \"main\" \"p\"\n"
      ".deps 1\n"
      ".code\n"
      "  newc 0\n"
      "  load 0\n"
      "  newc 0\n"        // slot 0 := d; c is left on the operand stack only
      "  importn 1 0 1\n" // parks; slot 1 := the imported value
      "  store 2\n"       // slot 2 := c
      "  load 2\n"
      "  trobj 0 0\n"     // an object at c
      "  newc 3\n"        // must not get c's slot
      "  load 2\n"
      "  load 3\n"
      "  eq\n"
      "  print 1\n"
      "  load 1\n"
      "  load 2\n"
      "  trmsg 0 1\n"     // go(<imported value>) at c
      "  halt\n"
      ".end\n") + kPlus100Object;
  FakeBackend be;
  be.synchronous = false;
  Machine m("gc", 0, 0, &be);
  m.spawn_program(comp::from_assembly(text));
  m.run(1000);
  ASSERT_EQ(m.parked(), 1u);
  ASSERT_EQ(be.pending.size(), 1u);
  EXPECT_EQ(m.gc().channels_freed, 0u);
  EXPECT_EQ(m.live_channels(), 2u);
  m.resume_import(be.pending[0].first, Value::make_int(5));
  m.run(1000);
  EXPECT_TRUE(m.errors().empty()) << m.errors()[0];
  EXPECT_EQ(m.parked(), 0u);
  EXPECT_EQ(m.output(), (std::vector<std::string>{"false", "105"}));
}

// ---- segments -----------------------------------------------------------

TEST(Segments, SerializeRoundTrip) {
  auto prog = compile_source(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]) } in "
      "new x (Cell[x, 2.5] | x!read[x])");
  for (const auto& seg : prog.segments) {
    Writer w;
    seg.serialize(w);
    Reader r(w.data());
    Segment back = Segment::deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back.guid, seg.guid);
    EXPECT_EQ(back.code, seg.code);
    EXPECT_EQ(back.labels, seg.labels);
    EXPECT_EQ(back.strings, seg.strings);
    EXPECT_EQ(back.floats, seg.floats);
    EXPECT_EQ(back.deps, seg.deps);
  }
}

TEST(Segments, ProgramByteSizeNonTrivial) {
  auto prog = compile_source("print[1]");
  EXPECT_GT(prog.byte_size(), 0u);
}

TEST(Segments, DisassemblerCoversAllOps) {
  auto prog = compile_source(
      "def C(x) = x![1] in new a (C[a] | a?(v) = "
      "(if v == 1 then print[\"one\" ++ \"!\"] else print[2.5] | a![-v]))");
  const std::string dis = comp::disassemble(prog);
  EXPECT_NE(dis.find("mkblock"), std::string::npos);
  EXPECT_NE(dis.find("instof"), std::string::npos);
  EXPECT_NE(dis.find("trobj"), std::string::npos);
  EXPECT_NE(dis.find("fork"), std::string::npos);
  EXPECT_NE(dis.find("jmpf"), std::string::npos);
  // Tables decode by how the segment is referenced: a def block's class
  // table is not read as a method table (nor as code).
  const std::string cell = comp::disassemble(compile_source(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]) } in "
      "new x Cell[x, 1]"));
  EXPECT_NE(cell.find("  class 0/2 @3\n  3: load 0"), std::string::npos)
      << cell;
  EXPECT_NE(cell.find("  method read/1 @4\n  4: load 0"), std::string::npos)
      << cell;
}

TEST(Segments, ClosureCollection) {
  Machine m("main");
  auto prog = compile_source(
      "def C() = new x (x?{ l() = 0 } | x!l[]) in C[]");
  const std::uint32_t root = m.load_program(prog);
  std::vector<Segment> closure;
  m.collect_closure(root, closure);
  EXPECT_EQ(closure.size(), prog.segments.size())
      << "root closure must cover the whole program here";
}

// ---- differential tests against the reference reducer -------------------

class Differential : public ::testing::TestWithParam<const char*> {};

TEST_P(Differential, VmMatchesReducer) {
  const char* src = GetParam();

  calc::Reducer red;
  red.add_program("main", comp::parse_program(src));
  auto rres = red.run();
  ASSERT_TRUE(rres.errors.empty()) << rres.errors[0];

  auto m = run_local(src);
  ASSERT_TRUE(m.errors().empty()) << m.errors()[0];

  EXPECT_EQ(sorted(m.output()), sorted(red.output("main"))) << src;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, Differential,
    ::testing::Values(
        "print[42]",
        "print[1]; print[2]",
        "new x (x![1] | x?(v) = print[v])",
        "new x (x?(v) = print[v] | x![1])",
        "new x (x!a[1] | x!a[2] | x?{ a(v) = (print[v] | x?{ a(w) = print[w] "
        "}) })",
        "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
        "write(u) = Cell[self, u] } in "
        "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))",
        "def F(n, acc, r) = if n == 0 then r![acc] else F[n - 1, acc * n, r] "
        "in new out (F[10, 1, out] | out?(v) = print[v])",
        "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
        "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
        "in new o (Even[5, o] | o?(b) = print[b])",
        "x![3] | x?(v) = print[v * v]",
        "new a, b (a![1] | b![2] | a?(x) = b?(y) = print[x + y])",
        "print[\"s\" ++ \"t\", 1.5 * 2, 7 % 4, -(3 - 5)]",
        "if 2 > 1 then (if false then print[0] else print[1]) else print[2]",
        "let z = c![] in print[z] | c?(r) = r![99]",
        "new x (x?{ d(a, b) = print[a / b, a % b, a * b, -a, a - 1] } | "
        "x!d[0 - 9223372036854775807 - 1, 0 - 1])"));

}  // namespace
}  // namespace dityco::vm
