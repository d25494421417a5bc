// Stress and robustness tests: heavy cross-site traffic under the
// threaded driver, deep recursion, wide fan-outs, long pipelines, VM
// profiling, and API misuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>

#include "compiler/codegen.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "vm/machine.hpp"

namespace dityco::core {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// ---------------------------------------------------------------------
// Exact termination of the threaded driver: many short runs per shape,
// each of which must end on its own — right flag, every queue empty,
// output equal to the sequential driver's — never by the deadline.
// ---------------------------------------------------------------------

constexpr const char* kServer =
    "export new svc in def Serve(self) = "
    "self?{ val(x, r) = (r![x + 1] | Serve[self]) } in Serve[svc]";
constexpr const char* kClient =
    "import svc from server in let y = svc![41] in print[\"got\", y]";

/// Sets up a fresh network (topology, fault hooks, programs) under cfg.
using Scenario = std::function<void(Network&)>;

struct Outcome {
  bool quiescent = false, stalled = false;
  std::vector<std::string> output;  // every site's, in site order
};

/// The threaded driver checks that the network is at rest when its
/// threads join (before the GC drain could run leftover work) and
/// reports a wrong zero through all_errors().
Outcome run_once(Network::Mode mode, const Scenario& scenario) {
  Network::Config cfg;
  cfg.mode = mode;
  cfg.timeout_ms = 10'000;
  Network net(cfg);
  scenario(net);
  const Network::Result res = net.run();
  EXPECT_FALSE(res.budget_exhausted) << "ended by the deadline";
  EXPECT_EQ(net.all_errors(), std::vector<std::string>{});
  EXPECT_EQ(net.transport().in_flight(), 0u);
  Outcome o{res.quiescent, res.stalled, {}};
  for (const auto& n : net.nodes())
    for (const auto& s : n->sites()) {
      EXPECT_EQ(s->incoming_size(), 0u) << s->name();
      EXPECT_EQ(s->outgoing_size(), 0u) << s->name();
      EXPECT_TRUE(s->failed() || s->machine().idle()) << s->name();
      for (const auto& line : s->machine().output())
        o.output.push_back(s->name() + ": " + line);
    }
  return o;
}

void expect_exact_termination(const Scenario& scenario, bool stalled) {
  const Outcome want = run_once(Network::Mode::kSequential, scenario);
  ASSERT_EQ(want.stalled, stalled);
  ASSERT_EQ(want.quiescent, !stalled);
  const int runs = kSanitized ? 200 : 2000;
  for (int i = 0; i < runs; ++i) {
    const Outcome got = run_once(Network::Mode::kThreaded, scenario);
    ASSERT_EQ(got.stalled, stalled) << "run " << i;
    ASSERT_EQ(got.quiescent, !stalled) << "run " << i;
    ASSERT_EQ(got.output, want.output) << "run " << i;
    if (::testing::Test::HasFailure()) FAIL() << "run " << i;
  }
}

TEST(Termination, CrossNodeRpc) {
  expect_exact_termination(
      [](Network& net) {
        net.add_node();
        net.add_node();
        net.add_site(0, "server");
        net.add_site(1, "client");
        net.submit_source("server", kServer);
        net.submit_source("client", kClient);
      },
      /*stalled=*/false);
}

TEST(Termination, SameNodeRpc) {
  expect_exact_termination(
      [](Network& net) {
        net.add_node();
        net.add_site(0, "server");
        net.add_site(0, "client");
        net.submit_source("server", kServer);
        net.submit_source("client", kClient);
      },
      /*stalled=*/false);
}

TEST(Termination, DropFilterEatsRelsAndShipms) {
  // Every REL and every SHIPM bound for node 2 vanishes on the wire; the
  // lost packets must count as consumed or the run never ends.
  expect_exact_termination(
      [](Network& net) {
        net.add_node();
        net.add_node();
        net.add_node();
        net.add_site(0, "server");
        net.add_site(1, "client");
        net.add_site(2, "sink");
        auto& tr = dynamic_cast<net::InProcTransport&>(net.transport());
        tr.set_drop_filter([](const net::Packet& p) {
          const MsgType t = packet_type(p.bytes);
          return t == MsgType::kRelease ||
                 (t == MsgType::kShipMsg && p.dst_node == 2);
        });
        net.submit_source("server", kServer);
        net.submit_source("sink", "export new box in box?(v) = print[v]");
        net.submit_source("client",
                          std::string(kClient) +
                              " | import box from sink in box![1]");
      },
      /*stalled=*/false);
}

TEST(Termination, KilledSite) {
  // The server exports, then dies: it drops the request, and the client
  // is left waiting on a reply channel — quiescence, not a stall.
  expect_exact_termination(
      [](Network& net) {
        net.add_node();
        net.add_node();
        net.add_site(0, "server");
        net.add_site(1, "client");
        net.submit_source("server", kServer);
        ASSERT_TRUE(net.run().quiescent);
        net.find_site("server")->kill();
        net.submit_source("client", kClient);
      },
      /*stalled=*/false);
}

TEST(Termination, StalledImport) {
  expect_exact_termination(
      [](Network& net) {
        net.add_node();
        net.add_node();
        net.add_site(0, "server");
        net.add_site(1, "client");
        net.submit_source("client", "import ghost from server in ghost![1]");
      },
      /*stalled=*/true);
}

TEST(Termination, EmptyRunEndsWellUnderAMillisecond) {
  // No grace window: a run with nothing queued or runnable returns at
  // once.
  if (kSanitized) GTEST_SKIP() << "timing check; sanitizers distort it";
#ifndef NDEBUG
  GTEST_SKIP() << "timing check; optimised builds only";
#endif
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    Network net(cfg);
    net.add_node();
    net.add_site(0, "main");
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = net.run();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    ASSERT_TRUE(res.quiescent);
  }
  std::nth_element(us.begin(), us.begin() + 100, us.end());
  EXPECT_LT(us[100], 500.0) << "median run() of an empty network, us";
}

TEST(Stress, ThreadedManyToOneFlood) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.timeout_ms = 30'000;
  Network net(cfg);
  net.add_node();
  net.add_site(0, "sink");
  const int producers = 4;
  const int msgs = 500;
  for (int i = 0; i < producers; ++i) {
    net.add_node();
    net.add_site(static_cast<std::size_t>(i) + 1, "p" + std::to_string(i));
  }
  net.submit_source(
      "sink",
      "export new acc in "
      "def Count(self, n) = self?{ val(v) = "
      "(if n == " + std::to_string(producers * msgs) +
      " - 1 then print[\"received\", n + 1] else 0) | Count[self, n + 1] } "
      "in Count[acc, 0]");
  for (int i = 0; i < producers; ++i)
    net.submit_source("p" + std::to_string(i),
                      "import acc from sink in "
                      "def Flood(k) = if k == 0 then 0 else (acc![k] | "
                      "Flood[k - 1]) in Flood[" + std::to_string(msgs) + "]");
  auto res = net.run();
  ASSERT_TRUE(res.quiescent) << "flood did not drain";
  EXPECT_TRUE(net.all_errors().empty());
  EXPECT_EQ(net.output("sink"),
            std::vector<std::string>{
                "received " + std::to_string(producers * msgs)});
}

TEST(Stress, ThreadedRingManyLaps) {
  Network::Config cfg;
  cfg.mode = Network::Mode::kThreaded;
  cfg.timeout_ms = 30'000;
  Network net(cfg);
  const int n = 4, laps = 25;
  for (int i = 0; i < n; ++i) {
    net.add_node();
    net.add_site(static_cast<std::size_t>(i), "s" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    const std::string next = "s" + std::to_string((i + 1) % n);
    net.submit_source(
        "s" + std::to_string(i),
        "export new slot in "
        "def Station(self) = self?{ tok(v) = "
        "((if v >= " + std::to_string(n * laps) +
        " then print[\"retired\", v] "
        "else (import slot from " + next + " in slot!tok[v + 1])) "
        "| Station[self]) } in (Station[slot]" +
        std::string(i == 0 ? " | import slot from " + next +
                                 " in slot!tok[1]"
                           : "") + ")");
  }
  auto res = net.run();
  ASSERT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("s0"),
            std::vector<std::string>{"retired " + std::to_string(n * laps)});
}

TEST(Stress, DeepTailRecursionConstantMemoryish) {
  Network net;
  net.add_node();
  net.add_site(0, "main");
  net.submit_source("main",
                    "def Loop(i) = if i == 0 then print[\"bottom\"] "
                    "else Loop[i - 1] in Loop[300000]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("main"), std::vector<std::string>{"bottom"});
}

TEST(Stress, WideForkJoin) {
  // 512 parallel workers all reply to a single collector.
  Network net;
  net.add_node();
  net.add_site(0, "main");
  net.submit_source("main",
                    "new done ("
                    "def Spawn(k) = if k == 0 then 0 else (done![k] | "
                    "Spawn[k - 1]) "
                    "and Join(n, acc) = if n == 0 then print[\"sum\", acc] "
                    "else done?(v) = Join[n - 1, acc + v] "
                    "in (Spawn[512] | Join[512, 0]))");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  // 1 + 2 + ... + 512
  EXPECT_EQ(net.output("main"), std::vector<std::string>{"sum 131328"});
}

TEST(Stress, LongDistributedPipeline) {
  // 24 sites in a row, each incrementing and forwarding to the next.
  Network net;
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    net.add_node();
    net.add_site(static_cast<std::size_t>(i), "h" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    std::string prog = "export new slot in slot?(v) = ";
    if (i + 1 < n)
      prog += "(import slot from h" + std::to_string(i + 1) +
              " in slot![v + 1])";
    else
      prog += "print[\"end\", v]";
    net.submit_source("h" + std::to_string(i), prog);
  }
  // Inject the token at h0's exported slot. An exported name is a
  // restricted channel, not the site's free-name global, so it must be
  // addressed through an import (a self-import resolves locally).
  net.submit_source("h0", "import slot from h0 in slot![0]");
  auto res = net.run();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("h" + std::to_string(n - 1)),
            std::vector<std::string>{"end " + std::to_string(n - 1)});
}

TEST(Stress, ProfilerCapturesInstructions) {
  vm::Machine m("traced");
  m.enable_profiling(1);  // one sample per executed instruction
  // Compile unoptimised so the expression survives constant folding.
  m.spawn_program(comp::compile_source("print[1 + 2]", /*optimize=*/false));
  m.run(1000);
  // pushi, pushi, add, print, halt
  EXPECT_EQ(m.stats().instructions, 5u);
  EXPECT_EQ(m.profiler().total(), 5u);
  std::map<std::string, std::uint64_t> by_op;
  for (const auto& s : m.profiler().snapshot())
    by_op[vm::op_name(static_cast<vm::Op>(s.op))] += s.count;
  EXPECT_EQ(by_op, (std::map<std::string, std::uint64_t>{
                       {"pushi", 2}, {"add", 1}, {"print", 1}, {"halt", 1}}));
  EXPECT_EQ(m.output(), std::vector<std::string>{"3"});
}

TEST(Stress, ApiMisuseThrows) {
  Network net;
  net.add_node();
  net.add_site(0, "main");
  EXPECT_THROW(net.add_site(0, "main"), std::logic_error);  // duplicate
  EXPECT_THROW(net.submit_source("ghost", "0"), std::logic_error);
  EXPECT_THROW(net.output("ghost"), std::logic_error);
  net.run();
  EXPECT_THROW(net.add_node(), std::logic_error);  // after start
}

TEST(Stress, ResubmissionAfterRunsAccumulate) {
  Network net;
  net.add_node();
  net.add_site(0, "main");
  for (int round = 0; round < 10; ++round) {
    net.submit_source("main", "print[" + std::to_string(round) + "]");
    auto res = net.run();
    EXPECT_TRUE(res.quiescent);
  }
  EXPECT_EQ(net.output("main").size(), 10u);
}

}  // namespace
}  // namespace dityco::core
