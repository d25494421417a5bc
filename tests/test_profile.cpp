// Sampled VM execution profiler: obs::Profiler unit behaviour (key
// packing, probe-limit overflow, names, concurrent snapshots) and its
// integration into vm::Machine — instruction-count-triggered samples
// attributed to (opcode, definition), folded-stack rendering, the
// run-queue wait histogram, and a threaded run scraped mid-flight
// (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "obs/profile.hpp"
#include "vm/machine.hpp"

namespace dityco {
namespace {

// ---------------------------------------------------------------------
// obs::Profiler
// ---------------------------------------------------------------------

TEST(Profiler, DisabledByDefaultAndAfterZeroPeriod) {
  obs::Profiler p;
  EXPECT_FALSE(p.enabled());
  p.enable(4);
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.period(), 4u);
}

TEST(Profiler, SamplesAccumulatePerOpcodeContextPair) {
  obs::Profiler p;
  p.enable(1);
  p.sample(/*op=*/3, /*ctx=*/0);
  p.sample(3, 0);
  p.sample(7, 0);
  p.sample(3, 1);
  EXPECT_EQ(p.total(), 4u);
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  std::uint64_t seen_3_0 = 0;
  for (const auto& s : snap)
    if (s.op == 3 && s.ctx == 0) seen_3_0 = s.count;
  EXPECT_EQ(seen_3_0, 2u);
}

TEST(Profiler, OpcodeZeroInContextZeroIsNotLostAsEmpty) {
  // make_key sets bit 63, so (op=0, ctx=0) must be distinguishable
  // from an empty cell.
  obs::Profiler p;
  p.enable(1);
  p.sample(0, 0);
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].op, 0u);
  EXPECT_EQ(snap[0].ctx, 0u);
  EXPECT_EQ(snap[0].count, 1u);
}

TEST(Profiler, ContextNamesRoundTrip) {
  obs::Profiler p;
  p.set_context_name(5, "Serve");
  EXPECT_EQ(p.context_name(5), "Serve");
  EXPECT_FALSE(p.context_name(6).empty()) << "unknown slots get a fallback";
}

TEST(Profiler, OverflowIsCountedNotCrashed) {
  obs::Profiler p;
  p.enable(1);
  // Far more distinct keys than the 2048-cell table can hold: the
  // spill must land in overflow(), never corrupt existing cells.
  for (std::uint32_t ctx = 0; ctx < 5000; ++ctx) p.sample(1, ctx);
  EXPECT_GT(p.overflow(), 0u);
  // total() counts kept samples; every attempt is either kept or spilt.
  EXPECT_EQ(p.total() + p.overflow(), 5000u);
  std::uint64_t kept = 0;
  for (const auto& s : p.snapshot()) kept += s.count;
  EXPECT_EQ(kept, p.total());
}

TEST(Profiler, SnapshotRacesWriterCleanly) {
  obs::Profiler p;
  p.enable(1);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& s : p.snapshot()) {
        // A snapshot cell must always decode to the key it was
        // published under (counts may lag; pairs may not tear).
        EXPECT_LT(s.op, 64u);
        EXPECT_LT(s.ctx, 64u);
      }
    }
  });
  for (int i = 0; i < 200'000; ++i)
    p.sample(static_cast<std::uint32_t>(i % 64),
             static_cast<std::uint32_t>((i / 64) % 64));
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(p.total() + p.overflow(), 200'000u);
}

// ---------------------------------------------------------------------
// vm::Machine integration
// ---------------------------------------------------------------------

TEST(MachineProfile, FoldedStacksNameTheHotDefinition) {
  vm::Machine m("main");
  m.enable_profiling(/*period=*/8);
  m.spawn_program(comp::compile_source(
      "def Spin(i) = if i == 0 then print[\"done\"] else Spin[i - 1] in "
      "Spin[2000]"));
  m.run(1'000'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_GT(m.profiler().total(), 0u);
  const std::string folded = m.profile_folded();
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("main;"), std::string::npos) << folded;
  EXPECT_NE(folded.find(";Spin;"), std::string::npos)
      << "the compiler-stamped definition name must reach the fold:\n"
      << folded;
}

TEST(MachineProfile, DisabledMachineEmitsNothing) {
  vm::Machine m("main");
  m.spawn_program(comp::compile_source("print[1 + 1]"));
  m.run(100'000);
  EXPECT_EQ(m.profiler().total(), 0u);
  EXPECT_TRUE(m.profile_folded().empty());
}

TEST(MachineProfile, RunWaitHistogramFillsWhenProfiling) {
  vm::Machine m("main");
  m.enable_profiling(16);
  m.spawn_program(comp::compile_source(
      "def Ping(n) = if n == 0 then 0 else new a (a![n] | a?(v) = "
      "Ping[v - 1]) in Ping[300]"));
  m.run(1'000'000);
  EXPECT_TRUE(m.errors().empty());
  // Each reduction re-enqueues a frame; its queue-wait must have been
  // observed.
  EXPECT_GT(m.run_wait_histogram().snapshot().count, 0u);
}

// ---------------------------------------------------------------------
// Network plumbing: scrape-while-running (the TSan target)
// ---------------------------------------------------------------------

TEST(NetworkProfile, ThreadedRunSnapshotsProfilerConcurrently) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.timeout_ms = 10'000;
  core::Network net(cfg);
  net.add_node();
  net.add_node();
  net.add_site(0, "server");
  net.add_site(1, "client");
  net.enable_profiling(/*period=*/32);
  net.submit_source("server",
                    "def S(self) = self?{ val(x, r) = (r![x + 1] | S[self]) } "
                    "in export new p in S[p]");
  net.submit_source(
      "client",
      "import p from server in "
      "def Drive(n) = if n == 0 then print[\"done\"] else "
      "new a (p![n, a] | a?(v) = Drive[n - 1]) in Drive[200]");
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string folded = net.profile_folded();
      (void)folded;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto res = net.run();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_TRUE(res.quiescent);
  EXPECT_EQ(net.output("client"), std::vector<std::string>{"done"});
  const std::string folded = net.profile_folded();
  EXPECT_NE(folded.find(";Drive;"), std::string::npos) << folded;
}

}  // namespace
}  // namespace dityco
