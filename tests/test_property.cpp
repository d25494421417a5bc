// Property-based differential tests. A seeded generator produces random
// programs whose observable output is deterministic by construction
// (single-consumer pipelines); every program is then executed on
//   (1) the reference reducer (the executable formal semantics),
//   (2) the byte-code VM (single site), and
//   (3) the full distributed runtime with the pipeline spread across
//       sites and nodes (sequential driver),
// and all three must print the same lines. Also: print/parse round trips,
// segment serialisation round trips and type-inference runs on the same
// generated corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "calculus/reducer.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "net/tcp.hpp"
#include "support/rng.hpp"
#include "types/infer.hpp"
#include "vm/machine.hpp"

namespace dityco {
namespace {

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Random integer expression over variable `v`; total and division-safe.
std::string gen_int_expr(Rng& rng, const std::string& v, int depth) {
  if (depth == 0 || rng.chance(1, 3)) {
    if (rng.chance(1, 2)) return v;
    return std::to_string(rng.range(-20, 20));
  }
  const char* ops[] = {"+", "-", "*"};
  std::string l = gen_int_expr(rng, v, depth - 1);
  std::string r = gen_int_expr(rng, v, depth - 1);
  if (rng.chance(1, 4)) {
    // Safe division/modulo by a non-zero literal.
    const char* op = rng.chance(1, 2) ? "/" : "%";
    return "(" + l + " " + op + " " + std::to_string(rng.range(1, 9)) + ")";
  }
  return "(" + l + " " + ops[rng.below(3)] + " " + r + ")";
}

/// One pipeline stage: consumes `v` on `in`, produces on `out`. Several
/// shapes: direct forward, recursion through a class, conditional,
/// parallel noise.
std::string gen_stage(Rng& rng, const std::string& in,
                      const std::string& out, int idx) {
  const std::string v = "v" + std::to_string(idx);
  switch (rng.below(4)) {
    case 0:  // direct forward
      return in + "?(" + v + ") = " + out + "![" +
             gen_int_expr(rng, v, 2) + "]";
    case 1: {  // recursion burning a few instantiations
      const std::string cls = "Loop" + std::to_string(idx);
      const int n = static_cast<int>(rng.range(1, 5));
      return "def " + cls + "(n, acc, k) = if n == 0 then k![acc] else " +
             cls + "[n - 1, acc + " + std::to_string(rng.range(1, 7)) +
             ", k] in " + in + "?(" + v + ") = " + cls + "[" +
             std::to_string(n) + ", " + gen_int_expr(rng, v, 1) + ", " +
             out + "]";
    }
    case 2: {  // conditional on the value
      return in + "?(" + v + ") = (if " + v + " % 2 == 0 then " + out +
             "![" + gen_int_expr(rng, v, 1) + "] else " + out + "![" +
             gen_int_expr(rng, v, 1) + "])";
    }
    default: {  // forward plus inert parallel noise
      return "(" + in + "?(" + v + ") = " + out + "![" +
             gen_int_expr(rng, v, 2) + "]) | new noise" +
             std::to_string(idx) + " (noise" + std::to_string(idx) +
             "?(x) = print[x])";
    }
  }
}

struct Pipeline {
  std::string single_site;                      // one program
  std::vector<std::pair<std::string, std::string>> sites;  // distributed
  int stages = 0;
};

Pipeline gen_pipeline(std::uint64_t seed) {
  Rng rng(seed);
  Pipeline out;
  out.stages = static_cast<int>(rng.range(2, 6));
  const std::int64_t seed_val = rng.range(-50, 50);

  // Single-site version: all channels are new-bound in one scope.
  {
    Rng r2(seed * 7 + 1);
    std::string src = "new ";
    for (int i = 0; i <= out.stages; ++i)
      src += std::string(i ? ", " : "") + "c" + std::to_string(i);
    src += " in (";
    for (int i = 0; i < out.stages; ++i)
      src += "(" + gen_stage(r2, "c" + std::to_string(i),
                             "c" + std::to_string(i + 1), i) + ") | ";
    src += "c0![" + std::to_string(seed_val) + "] | c" +
           std::to_string(out.stages) + "?(z) = print[z])";
    out.single_site = src;
  }

  // Distributed version: stage i lives at site st<i>, channels exported.
  {
    Rng r2(seed * 7 + 1);  // same stage shapes as the single-site version
    for (int i = 0; i < out.stages; ++i) {
      std::string site = "st" + std::to_string(i);
      std::string prog = "export new c" + std::to_string(i) + " in ";
      if (i + 1 < out.stages)
        prog += "import c" + std::to_string(i + 1) + " from st" +
                std::to_string(i + 1) + " in ";
      else
        prog += "new c" + std::to_string(out.stages) + " (c" +
                std::to_string(out.stages) + "?(z) = print[z] | ";
      prog += "(" + gen_stage(r2, "c" + std::to_string(i),
                              "c" + std::to_string(i + 1), i) + ")";
      if (i + 1 >= out.stages) prog += ")";
      out.sites.emplace_back(std::move(site), std::move(prog));
    }
    out.sites.emplace_back(
        "driver", "import c0 from st0 in c0![" + std::to_string(seed_val) +
                      "]");
  }
  return out;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, ReducerVmAndNetworkAgree) {
  const Pipeline p = gen_pipeline(GetParam());

  // (1) reference reducer, single site
  calc::Reducer red;
  red.add_program("main", comp::parse_program(p.single_site));
  auto rres = red.run();
  ASSERT_TRUE(rres.quiescent) << p.single_site;
  ASSERT_TRUE(rres.errors.empty()) << rres.errors[0] << "\n" << p.single_site;
  const auto expected = sorted(red.output("main"));
  ASSERT_EQ(expected.size(), 1u) << p.single_site;

  // (2) byte-code VM, single site
  vm::Machine m("main");
  m.spawn_program(comp::compile_source(p.single_site));
  m.run(10'000'000);
  ASSERT_TRUE(m.errors().empty()) << m.errors()[0] << "\n" << p.single_site;
  EXPECT_EQ(sorted(m.output()), expected) << p.single_site;

  // (3) distributed runtime: one node per site
  core::Network net;
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    net.add_node();
    net.add_site(i, p.sites[i].first);
  }
  for (const auto& [site, prog] : p.sites) net.submit_source(site, prog);
  auto nres = net.run();
  ASSERT_TRUE(nres.quiescent);
  ASSERT_TRUE(net.all_errors().empty()) << net.all_errors()[0];
  std::vector<std::string> all;
  for (const auto& [site, _] : p.sites)
    for (const auto& line : net.output(site)) all.push_back(line);
  EXPECT_EQ(sorted(all), expected) << "distributed run diverged";
}

TEST_P(PipelineProperty, PrintParseRoundTrip) {
  const Pipeline p = gen_pipeline(GetParam());
  auto ast = comp::parse_program(p.single_site);
  const std::string s1 = calc::to_string(*ast);
  const std::string s2 = calc::to_string(*comp::parse_program(s1));
  EXPECT_EQ(s1, s2);
}

TEST_P(PipelineProperty, SegmentsSerialiseLosslessly) {
  const Pipeline p = gen_pipeline(GetParam());
  auto prog = comp::compile_source(p.single_site);
  for (const auto& seg : prog.segments) {
    Writer w;
    seg.serialize(w);
    Reader r(w.data());
    auto back = vm::Segment::deserialize(r);
    EXPECT_EQ(back.code, seg.code);
    EXPECT_EQ(back.labels, seg.labels);
    EXPECT_EQ(back.strings, seg.strings);
    EXPECT_EQ(back.deps, seg.deps);
  }
}

TEST_P(PipelineProperty, GeneratedProgramsAreWellTyped) {
  const Pipeline p = gen_pipeline(GetParam());
  EXPECT_NO_THROW(types::infer(comp::parse_program(p.single_site)))
      << p.single_site;
  auto problems = types::check_network([&] {
    std::vector<std::pair<std::string, calc::ProcPtr>> ps;
    for (const auto& [site, prog] : p.sites)
      ps.emplace_back(site, comp::parse_program(prog));
    return ps;
  }());
  EXPECT_TRUE(problems.empty()) << problems[0];
}

TEST_P(PipelineProperty, ThreadedDriverAgrees) {
  const Pipeline p = gen_pipeline(GetParam());
  calc::Reducer red;
  red.add_program("main", comp::parse_program(p.single_site));
  red.run();
  const auto expected = sorted(red.output("main"));

  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  core::Network net(cfg);
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    net.add_node();
    net.add_site(i, p.sites[i].first);
  }
  for (const auto& [site, prog] : p.sites) net.submit_source(site, prog);
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);
  std::vector<std::string> all;
  for (const auto& [site, _] : p.sites)
    for (const auto& line : net.output(site)) all.push_back(line);
  EXPECT_EQ(sorted(all), expected);
}

TEST_P(PipelineProperty, DistributedRunLeaksNothing) {
  // Distributed-GC leak check over the same random corpus: whatever the
  // pipeline shape, the final epoch leaves every export table, netref
  // table and the name service's IdTable empty.
  const Pipeline p = gen_pipeline(GetParam());
  core::Network net;
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    net.add_node();
    net.add_site(i, p.sites[i].first);
  }
  for (const auto& [site, prog] : p.sites) net.submit_source(site, prog);
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);
  ASSERT_TRUE(net.all_errors().empty()) << net.all_errors()[0];
  auto rep = net.collect_garbage();
  EXPECT_EQ(rep.exports_live, 0u) << p.single_site;
  EXPECT_EQ(rep.netrefs_live, 0u) << p.single_site;
  EXPECT_EQ(rep.ns_ids, 0u) << p.single_site;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------
// Distributed-GC credit conservation
// ---------------------------------------------------------------------
//
// Drives three machines directly through the marshalling layer with a
// random sequence of export / forward / drop / send-home operations,
// applying every REL synchronously. The conservation law checked after
// every step: the owner's outstanding credit equals exactly the credit
// held across all other machines — no unit is ever created, destroyed,
// or double-counted by splits, returns or releases.

class GcConservationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcConservationProperty, CreditIsConservedAndDrainsToZero) {
  Rng rng(GetParam() * 9176 + 5);
  vm::Machine owner("owner", 0, 0);
  vm::Machine ma("a", 1, 0);
  vm::Machine mb("b", 2, 0);
  vm::Machine* holders[2] = {&ma, &mb};
  std::vector<vm::Value> held[2];        // per-holder GC roots
  std::vector<std::uint32_t> chans;      // owner-side channels

  auto flush_rels = [&](vm::Machine& h) {
    for (const auto& [ref, cum] : h.take_pending_releases())
      owner.apply_release(ref.kind, ref.heap_id, h.node_id(), h.site_id(),
                          cum);
  };
  auto check = [&](const char* what) {
    EXPECT_EQ(owner.exports_outstanding(),
              ma.netref_credit_total() + mb.netref_credit_total())
        << what << " broke conservation (seed " << GetParam() << ")";
  };

  for (int step = 0; step < 60; ++step) {
    switch (rng.below(4)) {
      case 0: {  // owner exports a (fresh or re-exported) channel
        if (chans.empty() || rng.chance(1, 2)) chans.push_back(owner.new_channel());
        const std::uint32_t ch = chans[rng.below(chans.size())];
        const std::size_t h = rng.below(2);
        Writer w;
        core::marshal_value(owner, vm::Value::make_chan(ch), w);
        const auto bytes = w.take();
        Reader r(bytes);
        held[h].push_back(core::unmarshal_value(*holders[h], r));
        check("export");
        break;
      }
      case 1: {  // forward a held handle to the other holder
        const std::size_t h = rng.below(2);
        if (held[h].empty()) break;
        const vm::Value v = held[h][rng.below(held[h].size())];
        Writer w;
        core::marshal_value(*holders[h], v, w);
        const auto bytes = w.take();
        Reader r(bytes);
        held[1 - h].push_back(
            core::unmarshal_value(*holders[1 - h], r));
        check("forward");
        break;
      }
      case 2: {  // drop a handle; collect; release synchronously
        const std::size_t h = rng.below(2);
        if (held[h].empty()) break;
        const std::size_t i = rng.below(held[h].size());
        held[h][i] = held[h].back();
        held[h].pop_back();
        holders[h]->gc(held[h]);
        flush_rels(*holders[h]);
        check("drop");
        break;
      }
      default: {  // send a handle home: its share returns inline
        const std::size_t h = rng.below(2);
        if (held[h].empty()) break;
        const vm::Value v = held[h][rng.below(held[h].size())];
        Writer w;
        core::marshal_value(*holders[h], v, w);
        const auto bytes = w.take();
        Reader r(bytes);
        const vm::Value back = core::unmarshal_value(owner, r);
        EXPECT_EQ(back.tag, vm::Value::Tag::kChan) << "localised at home";
        check("send home");
        break;
      }
    }
  }

  // Teardown: every handle dies; all credit must come back and every
  // entry, netref slot and owner channel must free.
  held[0].clear();
  held[1].clear();
  chans.clear();
  for (const std::size_t h : {std::size_t{0}, std::size_t{1}}) {
    holders[h]->gc(held[h]);
    flush_rels(*holders[h]);
  }
  EXPECT_EQ(owner.exports_outstanding(), 0u);
  EXPECT_EQ(owner.live_exports(), 0u) << "seed " << GetParam();
  EXPECT_EQ(ma.live_netrefs(), 0u);
  EXPECT_EQ(mb.live_netrefs(), 0u);
  owner.gc();
  EXPECT_EQ(owner.live_channels(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcConservationProperty,
                         ::testing::Range<std::uint64_t>(1, 49));

// Expression-only differential: VM and reducer agree on arithmetic.
class ExprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprProperty, VmMatchesReducerExactly) {
  Rng rng(GetParam() * 1337);
  std::string src =
      "new c (c![" + std::to_string(rng.range(-9, 9)) + "] | c?(w) = print[" +
      gen_int_expr(rng, "w", 4) + ", " + gen_int_expr(rng, "w", 3) + "])";
  calc::Reducer red;
  red.add_program("main", comp::parse_program(src));
  auto rres = red.run();
  ASSERT_TRUE(rres.errors.empty()) << src;

  vm::Machine m("main");
  m.spawn_program(comp::compile_source(src));
  m.run(1'000'000);
  ASSERT_TRUE(m.errors().empty()) << src;
  EXPECT_EQ(m.output(), red.output("main")) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty,
                         ::testing::Range<std::uint64_t>(1, 65));

// ---------------------------------------------------------------------
// Preemption at every boundary
// ---------------------------------------------------------------------
//
// A frame preempted at the slice budget leaves the interpreter with its
// operands and resumes with them. Slices of 1, 2 and 3 instructions put
// a boundary after every instruction of every frame; the output must not
// depend on where the boundaries fall.

constexpr std::uint64_t kSlices[] = {1, 2, 3, 7, 256};

/// Output of `sites` run to quiescence on the sequential driver with the
/// given slice, one node per site.
std::vector<std::string> run_sliced(
    const std::vector<std::pair<std::string, std::string>>& sites,
    std::uint64_t slice) {
  core::Network::Config cfg;
  cfg.slice = slice;
  core::Network net(cfg);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    net.add_node();
    net.add_site(i, sites[i].first);
  }
  for (const auto& [site, prog] : sites) net.submit_source(site, prog);
  const auto res = net.run();
  EXPECT_TRUE(res.quiescent) << "slice " << slice;
  EXPECT_TRUE(net.all_errors().empty()) << net.all_errors()[0];
  std::vector<std::string> all;
  for (const auto& [site, _] : sites)
    for (const auto& line : net.output(site)) all.push_back(line);
  return sorted(all);
}

std::vector<std::string> reducer_output(const std::string& src) {
  calc::Reducer red;
  red.add_program("main", comp::parse_program(src));
  const auto res = red.run();
  EXPECT_TRUE(res.errors.empty()) << res.errors[0] << "\n" << src;
  return sorted(red.output("main"));
}

class SliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceProperty, PipelineOutputIndependentOfSlice) {
  const Pipeline p = gen_pipeline(GetParam());
  const auto expected = reducer_output(p.single_site);
  ASSERT_EQ(expected.size(), 1u) << p.single_site;
  for (const std::uint64_t slice : kSlices) {
    EXPECT_EQ(run_sliced({{"main", p.single_site}}, slice), expected)
        << "single site, slice " << slice << "\n" << p.single_site;
    EXPECT_EQ(run_sliced(p.sites, slice), expected)
        << "distributed, slice " << slice;
  }
}

TEST_P(SliceProperty, DeepOperandStacksSurvivePreemption) {
  // Eight deep expressions in one print: while the last is evaluated the
  // seven results before it, and its own partial results, sit on the
  // operand stack.
  Rng rng(GetParam() * 7919 + 3);
  std::string args;
  for (int k = 0; k < 8; ++k)
    args += (k ? ", " : "") + gen_int_expr(rng, "w", 6);
  const std::string src = "new c (c![" + std::to_string(rng.range(-9, 9)) +
                          "] | c?(w) = print[" + args + "])";
  const auto expected = reducer_output(src);
  for (const std::uint64_t slice : kSlices)
    EXPECT_EQ(run_sliced({{"main", src}}, slice), expected)
        << "slice " << slice << "\n" << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------
// Wire-path coalescing (net/tcp.hpp gather_frames / consume_written)
// ---------------------------------------------------------------------
//
// The writev flush is modelled exactly: gather a bounded iovec batch
// from the frame queue, let a simulated kernel accept a random prefix
// of it, account the accepted bytes. Two properties: (1) whatever the
// budgets and partial writes, the bytes that reach the wire are the
// frames' exact concatenation — coalescing must be invisible to the
// receiver; (2) a disconnect at any offset rewinds to a whole-frame
// boundary, so across old + new connection every frame arrives exactly
// once, never torn, never duplicated.

std::vector<std::uint8_t> random_frame(Rng& rng) {
  std::vector<std::uint8_t> payload(1 + rng.below(200));
  for (auto& b : payload)
    b = static_cast<std::uint8_t>(rng.below(256));
  return net::encode_frame(payload);
}

class WireCoalescingProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireCoalescingProperty, CoalescedWritesMatchPerFrameByteStream) {
  Rng rng(GetParam() * 7919 + 3);
  net::BufferPool pool;
  std::vector<std::uint8_t> reference;  // one-write-per-frame stream
  std::deque<net::BufPtr> q;
  const std::size_t nframes = 1 + rng.below(40);
  for (std::size_t i = 0; i < nframes; ++i) {
    const auto f = random_frame(rng);
    reference.insert(reference.end(), f.begin(), f.end());
    auto buf = pool.acquire(f.size());
    buf->assign(f.begin(), f.end());
    q.push_back(std::move(buf));
  }

  // Random budgets each flush — including flush_frames = 1, the
  // coalescing-off degenerate the benches compare against.
  std::vector<std::uint8_t> wire;
  std::size_t wr_off = 0;
  struct iovec iov[net::kIovMax];
  while (!q.empty()) {
    const std::size_t flush_bytes = 1 + rng.below(4096);
    const std::size_t flush_frames = 1 + rng.below(net::kIovMax);
    const std::size_t cnt = net::gather_frames(q, wr_off, flush_bytes,
                                               flush_frames, iov,
                                               net::kIovMax);
    ASSERT_GE(cnt, 1u);
    ASSERT_LE(cnt, std::min(flush_frames, q.size()));
    std::size_t gathered = 0;
    for (std::size_t i = 0; i < cnt; ++i) gathered += iov[i].iov_len;
    // The kernel accepts a random nonzero prefix (short writes happen
    // at any byte, not at iovec boundaries).
    std::size_t n = 1 + rng.below(gathered);
    for (std::size_t i = 0; i < cnt && n > 0; ++i) {
      const std::size_t take = std::min(n, iov[i].iov_len);
      const auto* base = static_cast<const std::uint8_t*>(iov[i].iov_base);
      wire.insert(wire.end(), base, base + take);
      net::consume_written(q, wr_off, take, pool);
      n -= take;
    }
    // Frame-alignment invariant: wr_off stays inside the head frame.
    if (q.empty())
      EXPECT_EQ(wr_off, 0u);
    else
      ASSERT_LT(wr_off, q.front()->size());
  }
  EXPECT_EQ(wire, reference) << "coalescing changed the byte stream (seed "
                             << GetParam() << ")";
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST_P(WireCoalescingProperty, DisconnectAtAnyOffsetRewindsWholeFrames) {
  Rng rng(GetParam() * 104729 + 11);
  net::BufferPool pool;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::deque<net::BufPtr> q;
  const std::size_t nframes = 2 + rng.below(30);
  for (std::size_t i = 0; i < nframes; ++i) {
    std::vector<std::uint8_t> p(1 + rng.below(120));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
    payloads.push_back(p);
    const auto f = net::encode_frame(p);
    auto buf = pool.acquire(f.size());
    buf->assign(f.begin(), f.end());
    q.push_back(std::move(buf));
  }

  // First connection: write a random number of bytes (any offset, very
  // possibly mid-frame), then the peer drops.
  std::size_t wr_off = 0;
  std::vector<std::uint8_t> conn1;
  std::size_t total = 0;
  for (const auto& b : q) total += b->size();
  std::size_t written = rng.below(total + 1);
  while (written > 0 && !q.empty()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.below(64), written);
    const std::size_t head_left = q.front()->size() - wr_off;
    const std::size_t take = std::min(chunk, head_left);
    conn1.insert(conn1.end(), q.front()->data() + wr_off,
                 q.front()->data() + wr_off + take);
    net::consume_written(q, wr_off, take, pool);
    written -= take;
  }
  // Disconnect: the transport rewinds to the head frame's start — the
  // partially written prefix is abandoned with the dead socket.
  wr_off = 0;

  // Second connection drains the rest.
  std::vector<std::uint8_t> conn2;
  for (const auto& b : q) conn2.insert(conn2.end(), b->begin(), b->end());

  // Receiver side: each connection gets a fresh parser; the first
  // connection's dangling tail dies with its socket.
  net::FrameParser parse1, parse2;
  std::vector<std::vector<std::uint8_t>> got;
  if (!conn1.empty())
    ASSERT_TRUE(parse1.feed(conn1.data(), conn1.size(), got));
  const std::size_t from_conn1 = got.size();
  if (!conn2.empty())
    ASSERT_TRUE(parse2.feed(conn2.data(), conn2.size(), got));
  // Exactly once, in order, never torn: complete frames of connection 1
  // plus the retransmitted-whole remainder reassemble the original
  // sequence with no gap and no duplicate at the boundary.
  ASSERT_EQ(got.size(), payloads.size())
      << "frame lost or duplicated across reconnect (seed " << GetParam()
      << ", conn1 delivered " << from_conn1 << ")";
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(got[i], payloads[i]) << "frame " << i << " torn (seed "
                                   << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireCoalescingProperty,
                         ::testing::Range<std::uint64_t>(1, 49));

}  // namespace
}  // namespace dityco
