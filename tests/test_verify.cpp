// Byte-code verifier tests: every compiler output verifies cleanly;
// corrupted and hostile segments are rejected before linking; malformed
// packets never crash a site (fuzz).
#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
#include "vm/verify.hpp"

namespace dityco::vm {
namespace {

using comp::compile_source;

const char* kPrograms[] = {
    "print[1]",
    "new x (x![1] | x?(v) = print[v])",
    "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
    "write(u) = Cell[self, u] } in new x Cell[x, 9]",
    "if 1 < 2 then print[\"a\" ++ \"b\"] else print[2.5]",
    "import p from s in export new q in (p![q] | q?(v) = print[v])",
};

/// A segment of hand-written code (no pools unless a test adds them).
Segment code_segment(std::vector<std::uint32_t> code) {
  Segment seg;
  seg.code = std::move(code);
  return seg;
}

constexpr std::uint32_t op(Op o) { return static_cast<std::uint32_t>(o); }

/// The first problem of verifying `code` as a root, or "" when valid.
std::string entry_problem(std::vector<std::uint32_t> code) {
  const auto problems =
      verify_segment(code_segment(std::move(code)), SegmentRole::kEntry);
  return problems.empty() ? "" : problems[0];
}

class VerifierAccepts : public ::testing::TestWithParam<const char*> {};

TEST_P(VerifierAccepts, CompilerOutputIsValid) {
  const auto prog = compile_source(GetParam());
  auto problems = verify_program(prog);
  EXPECT_TRUE(problems.empty()) << problems[0] << "\nfor: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, VerifierAccepts,
                         ::testing::ValuesIn(kPrograms));

TEST(Verifier, RejectsUnknownOpcode) {
  auto prog = compile_source("print[1]");
  prog.segments[0].code[0] = 0xdeadbeef;
  EXPECT_FALSE(verify_program(prog).empty());
}

TEST(Verifier, RejectsTruncatedInstruction) {
  // print[1] ends ... print <nargs> halt: dropping the trailing halt and
  // print's operand leaves a print opcode with no operand word.
  auto prog = compile_source("print[1]");
  prog.segments[0].code.resize(prog.segments[0].code.size() - 2);
  EXPECT_FALSE(verify_program(prog).empty());
}

TEST(Verifier, CodeFallingOffTheEndIsRejected) {
  // Dropping only the final halt leaves a decodable stream whose control
  // runs off the end: rejected when the program is loaded, not at run
  // time, and nothing of it is linked.
  auto prog = compile_source("print[1]");
  prog.segments[0].code.resize(prog.segments[0].code.size() - 1);
  const auto problems = verify_program(prog);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("falls off the end"), std::string::npos)
      << problems[0];
  Machine m("m");
  EXPECT_THROW(m.spawn_program(prog), DecodeError);
  EXPECT_EQ(m.run(100), 0u);
  EXPECT_TRUE(m.output().empty());
}

TEST(Verifier, RejectsOperandStackUnderflow) {
  EXPECT_NE(entry_problem({op(Op::kPushBool), 1, op(Op::kAdd),
                           op(Op::kHalt)})
                .find("underflow"),
            std::string::npos);
  // trmsg pops its target plus nargs arguments.
  Segment seg = code_segment(
      {op(Op::kNewChan), 0, op(Op::kLoad), 0, op(Op::kTrMsg), 0, 1,
       op(Op::kHalt)});
  seg.labels = {"go"};
  const auto problems = verify_segment(seg, SegmentRole::kEntry);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("underflow"), std::string::npos);
}

TEST(Verifier, RejectsDepthMismatchAtJoin) {
  // pushb 1; jmpf L; pushi 1; L: halt — L is reached at depths 0 and 1.
  EXPECT_NE(entry_problem({op(Op::kPushBool), 1, op(Op::kJmpIfFalse), 7,
                           op(Op::kPushInt), 1, 0, op(Op::kHalt)})
                .find("at a join"),
            std::string::npos);
  // The same shape with one depth on both paths verifies.
  EXPECT_EQ(entry_problem({op(Op::kPushBool), 1, op(Op::kJmpIfFalse), 6,
                           op(Op::kNewChan), 0, op(Op::kHalt)}),
            "");
}

TEST(Verifier, RejectsDepthAboveMaxStack) {
  auto pushes = [](std::uint32_t n) {
    std::vector<std::uint32_t> code;
    for (std::uint32_t i = 0; i < n; ++i)
      code.insert(code.end(), {op(Op::kPushBool), 1});
    code.push_back(op(Op::kHalt));
    return code;
  };
  EXPECT_EQ(entry_problem(pushes(kMaxStack)), "");
  EXPECT_NE(entry_problem(pushes(kMaxStack + 1)).find("kMaxStack"),
            std::string::npos);
}

TEST(Verifier, RejectsSlotAtMaxLocals) {
  EXPECT_EQ(entry_problem({op(Op::kNewChan), kMaxLocals - 1, op(Op::kHalt)}),
            "");
  EXPECT_NE(entry_problem({op(Op::kNewChan), kMaxLocals, op(Op::kHalt)})
                .find("kMaxLocals"),
            std::string::npos);
  // This one used to pass verification and resize one frame's locals to
  // 3.2 GB at run time; now it is refused before anything runs.
  Program p;
  p.segments.push_back(
      code_segment({op(Op::kNewChan), 200'000'000, op(Op::kHalt)}));
  Machine m("m");
  EXPECT_THROW(m.spawn_program(p), DecodeError);
  EXPECT_EQ(m.run(100), 0u);
  // mkblock names the slot range [dst, dst + nclasses).
  Segment blk = code_segment(
      {op(Op::kMkBlock), 0, 0, 2, kMaxLocals - 1, op(Op::kHalt)});
  blk.deps = {SegmentGuid{0, 0, 1}};
  EXPECT_FALSE(verify_segment(blk, SegmentRole::kEntry).empty());
}

TEST(Verifier, RejectsLoadNoEntryProvides) {
  // A root is given no locals.
  EXPECT_NE(entry_problem({op(Op::kLoad), 0, op(Op::kPrint), 1,
                           op(Op::kHalt)})
                .find("no entry provides"),
            std::string::npos);
  // Slot 0 is stored on one path into the load only.
  EXPECT_NE(entry_problem({op(Op::kPushBool), 1, op(Op::kJmpIfFalse), 6,
                           op(Op::kNewChan), 0, op(Op::kLoad), 0,
                           op(Op::kPrint), 1, op(Op::kHalt)})
                .find("no entry provides"),
            std::string::npos);
  // Stored on every path: fine.
  EXPECT_EQ(entry_problem({op(Op::kNewChan), 0, op(Op::kLoad), 0,
                           op(Op::kPrint), 1, op(Op::kHalt)}),
            "");
}

TEST(Verifier, RejectsForkCapturingTooFewLocals) {
  // pushi 7; fork L 1; halt; L: load <slot>; print 1; halt
  auto fork_reading = [](std::uint32_t slot) {
    return entry_problem({op(Op::kPushInt), 7, 0, op(Op::kFork), 7, 1,
                          op(Op::kHalt), op(Op::kLoad), slot, op(Op::kPrint),
                          1, op(Op::kHalt)});
  };
  EXPECT_EQ(fork_reading(0), "");
  EXPECT_NE(fork_reading(1).find("fork captures 1"), std::string::npos);
}

TEST(Verifier, RejectsBackwardJumps) {
  EXPECT_NE(entry_problem({op(Op::kJmp), 0}).find("later instruction"),
            std::string::npos);
}

TEST(Verifier, RecordsLocalsEachEntryMustBeGiven) {
  // Object {a(x) reads slots 0..2, b() reads none}; class C reads slot 1.
  Segment obj = code_segment({2, 0, 1, 7, 1, 0, 12,  // a/1 @7, b/0 @12
                              op(Op::kLoad), 2, op(Op::kPrint), 1,
                              op(Op::kHalt), op(Op::kHalt)});
  obj.labels = {"a", "b"};
  SegmentFacts facts;
  ASSERT_TRUE(verify_segment(obj, SegmentRole::kObject, &facts).empty());
  EXPECT_EQ(facts.roles, role_bit(SegmentRole::kObject));
  EXPECT_EQ(facts.entry_locals, (std::vector<std::uint16_t>{3, 0}));
  EXPECT_EQ(facts.max_locals, 3u);
  EXPECT_EQ(facts.max_stack, 1u);
  // Handed to a machine with a one-value environment and one argument,
  // method a would read past its frame: refused at the reduction.
  Program p;
  p.segments.push_back(code_segment({op(Op::kHalt)}));
  p.segments.push_back(obj);
  Machine m("m");
  const std::uint32_t slot = m.load_program(p) + 1;
  const std::uint32_t chan = m.new_channel();
  m.channel_recv(chan, ObjClosure{slot, {Value::make_int(1)}});
  m.channel_send(chan, m.intern_label("a"), {Value::make_int(2)});
  m.run(100);
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("environment too short"), std::string::npos);
  m.channel_recv(chan,
                 ObjClosure{slot, {Value::make_int(1), Value::make_int(5)}});
  m.channel_send(chan, m.intern_label("a"), {Value::make_int(2)});
  m.run(100);
  EXPECT_EQ(m.errors().size(), 1u);
  EXPECT_EQ(m.output(), std::vector<std::string>{"2"});
}

TEST(Verifier, RejectsOutOfRangeStringIndex) {
  auto prog = compile_source("print[\"x\"]");
  // pushs operand -> bogus pool index
  auto& code = prog.segments[0].code;
  for (std::size_t i = 0; i < code.size();) {
    const Op op = static_cast<Op>(code[i]);
    if (op == Op::kPushStr) {
      code[i + 1] = 999;
      break;
    }
    i += 1 + static_cast<std::size_t>(op_arity(op));
  }
  EXPECT_FALSE(verify_program(prog).empty());
}

TEST(Verifier, RejectsJumpIntoOperand) {
  auto prog = compile_source("if true then print[1] else print[2]", false);
  auto& code = prog.segments[0].code;
  for (std::size_t i = 0; i < code.size();) {
    const Op op = static_cast<Op>(code[i]);
    if (op == Op::kJmpIfFalse) {
      code[i + 1] = static_cast<std::uint32_t>(i + 1);  // operand word
      break;
    }
    i += 1 + static_cast<std::size_t>(op_arity(op));
  }
  EXPECT_FALSE(verify_program(prog).empty());
}

TEST(Verifier, RejectsBadDependencyIndex) {
  auto prog = compile_source("new x x?{ l() = 0 }");
  for (auto& seg : prog.segments) {
    auto& code = seg.code;
    for (std::size_t i = (&seg == &prog.segments[prog.root]) ? 0 : 0;
         i < code.size();) {
      const std::uint32_t raw = code[i];
      if (raw > static_cast<std::uint32_t>(Op::kImportClass)) break;
      const Op op = static_cast<Op>(raw);
      if (op == Op::kTrObj) {
        code[i + 1] = 7;  // no such dependency
        auto problems = verify_program(prog);
        ASSERT_FALSE(problems.empty());
        return;
      }
      i += 1 + static_cast<std::size_t>(op_arity(op));
    }
  }
  FAIL() << "no trobj found";
}

TEST(Verifier, RejectsMalformedObjectTable) {
  Segment seg;
  seg.guid = {0, 0, 0};
  seg.code = {100};  // claims 100 methods, no room
  EXPECT_FALSE(verify_segment(seg, SegmentRole::kObject).empty());
}

TEST(Verifier, HostileShippedSegmentRejectedAtLink) {
  Segment bad;
  bad.guid = SegmentGuid{9, 9, 9};
  bad.code = {0xffffffffu};  // unknown opcode
  Machine m("victim");
  std::map<SegmentGuid, Segment> pool{{bad.guid, bad}};
  EXPECT_THROW(m.link(bad.guid, pool, SegmentRole::kObject), DecodeError);
}

// SHIPO delivers a closure for use as an object. A segment valid only as
// a root must not be read as a method table: not when it arrives fresh
// (it fails verification as an object) and not when its GUID names a
// segment this site already linked as a root.
TEST(Verifier, ShippedEntryOnlySegmentIsNotAnObject) {
  core::Network net;
  net.add_node();
  core::Site& server = net.add_site(0, "server");
  net.submit_source("server", "export new p in p!go[7]");  // waits at p
  ASSERT_TRUE(net.run().quiescent);
  const auto p = net.name_service().lookup_id("server", "p");
  ASSERT_TRUE(p.has_value());
  // Word 1 would be the first method's label index; there are no labels.
  Segment entry = code_segment(
      {op(Op::kPushInt), 1, 0, op(Op::kPrint), 1, op(Op::kHalt)});
  ASSERT_TRUE(verify_segment(entry, SegmentRole::kEntry).empty());
  ASSERT_FALSE(verify_segment(entry, SegmentRole::kObject).empty());
  const std::vector<std::string> want{"failed verification",
                                      "linked here in another role"};
  const SegmentGuid guids[] = {{9, 9, 9}, {0, 0, 0}};  // fresh; the root
  Machine forger("forger");
  for (std::size_t k = 0; k < 2; ++k) {
    entry.guid = guids[k];
    Writer w;
    core::write_header(w, core::MsgType::kShipObj, p->site);
    w.u64(p->heap_id);
    core::write_closure(w, {entry});
    core::marshal_values(forger, {}, w);
    server.push_incoming(net::Packet::parse(0, 0, w.take()));
    EXPECT_NO_THROW(net.run());
    const auto errors = net.all_errors();
    ASSERT_EQ(errors.size(), k + 1);
    EXPECT_NE(errors[k].find(want[k]), std::string::npos) << errors[k];
  }
  EXPECT_EQ(server.mobility().objs_received.value(), 0u);
  EXPECT_TRUE(server.machine().output().empty());
  EXPECT_EQ(server.machine().pending_messages(), 1u) << "go[7] still waits";
}

// Seeded mutation of compiled programs: a mutant either fails
// verification when it is loaded or runs its budget of instructions
// (or to completion), with at most runtime errors, never a crash. Run
// under ASan/UBSan in CI, this is the check that the unchecked
// interpreter trusts nothing the verifier did not prove.
TEST(Verifier, MutantsFailVerificationOrRunSafely) {
  std::vector<Program> progs;
  for (const char* src : kPrograms) progs.push_back(compile_source(src));
  for (const char* src :
       {"def F(n, acc, r) = if n == 0 then r![acc] else F[n - 1, acc * n, r] "
        "in new out (F[10, 1, out] | out?(v) = print[v])",
        "new x (x!a[1, 2.5, \"s\"] | x?{ a(u, v, w) = print[u + 1, v, w], "
        "b() = 0 })",
        "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
        "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
        "in new o (Even[5, o] | o?(b) = print[b])"})
    progs.push_back(compile_source(src));
  Rng rng(0x5eed17);
  std::size_t rejected = 0, ran = 0;
  for (int k = 0; k < 20'000; ++k) {
    Program p = progs[rng.below(progs.size())];
    for (std::uint64_t e = 1 + rng.below(3); e > 0; --e) {
      auto& code = p.segments[rng.below(p.segments.size())].code;
      std::uint32_t& word = code[rng.below(code.size())];
      switch (rng.below(4)) {
        case 0: word = static_cast<std::uint32_t>(rng.below(kOpCount)); break;
        case 1: word = static_cast<std::uint32_t>(rng.below(16)); break;
        case 2: word ^= 1u << rng.below(32); break;
        default: word = static_cast<std::uint32_t>(rng.next()); break;
      }
    }
    Machine m("mutant");
    try {
      m.spawn_program(p);
    } catch (const DecodeError&) {
      ++rejected;
      continue;
    }
    m.run(20'000);
    ++ran;
  }
  EXPECT_GT(rejected, 10'000u);
  EXPECT_GT(ran, 1'000u);
}

// ---------------------------------------------------------------------
// Packet fuzzing: random bytes at the site boundary must never crash.
// ---------------------------------------------------------------------

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBytesNeverCrashASite) {
  Rng rng(GetParam() * 40503 + 7);
  core::Network net;
  net.add_node();
  net.add_site(0, "victim");
  core::Site* victim = net.find_site("victim");
  for (int k = 0; k < 50; ++k) {
    const std::size_t len = rng.below(64);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    // Valid-looking header with a random body sometimes: bias byte 0 into
    // the real MsgType range so deeper parsing paths are reached.
    if (!bytes.empty() && rng.chance(1, 2))
      bytes[0] = static_cast<std::uint8_t>(1 + rng.below(7));
    if (bytes.size() >= 5) {
      bytes[1] = 0;  // dst_site = 0 (the victim)
      bytes[2] = bytes[3] = bytes[4] = 0;
    }
    // A header the Packet factory refuses never reaches a site.
    try {
      victim->push_incoming(net::Packet::parse(0, 0, std::move(bytes)));
    } catch (const DecodeError&) {
    }
  }
  EXPECT_NO_THROW(victim->process_incoming());
  // The site survives and can still run programs.
  net.submit_source("victim", "print[\"alive\"]");
  auto res = net.run();
  EXPECT_EQ(net.output("victim"), std::vector<std::string>{"alive"});
  EXPECT_FALSE(res.budget_exhausted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(PacketFuzz, TruncatedRealPacketsRejected) {
  // Take a real SHIPO packet and truncate it at every length: each prefix
  // must be rejected cleanly.
  core::Network net;
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.submit_network_source(
      "site server { export new x in x![1] }\n"
      "site client { import x from server in x?(v) = 0 }");
  // Don't run to completion; capture the client's outgoing object packet.
  // Simpler: craft the truncation test against a marshalled value stream.
  vm::Machine m("m", 0, 0);
  Writer w;
  core::marshal_value(m, Value::make_int(5), w);
  core::marshal_value(m, Value::make_chan(m.new_channel()), w);
  const auto& full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> part(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    Reader r(part);
    vm::Machine m2("m2", 1, 0);
    EXPECT_THROW(
        {
          core::unmarshal_value(m2, r);
          core::unmarshal_value(m2, r);
        },
        DecodeError)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace dityco::vm
