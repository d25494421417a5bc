// E4 (Figure 4): the node architecture — a pool of sites, the TyCOd
// communication daemon and the TyCOi user-interface daemon, all threads
// in one process. Wall-clock micro-benchmarks of that machinery:
//
//   * TyCOi: program-submission lifecycle (parse -> typecheck -> compile
//     -> load into a fresh site);
//   * site send path: cross-node packet throughput (site outbox ->
//     Transport::send on the sender's executor -> the destination
//     node's receiver hook -> the remote site's inbox; no daemon hop);
//   * site pool: throughput of S concurrent sites on one node under the
//     threaded driver (the paper's dual-processor SMP motivation).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace dityco;

const char* kProgram =
    "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
    "write(u) = Cell[self, u] } in "
    "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))";

void BM_SubmitLifecycle(benchmark::State& state) {
  const bool typecheck = state.range(0) != 0;
  for (auto _ : state) {
    core::Network::Config cfg;
    cfg.typecheck = typecheck;
    core::Network net(cfg);
    net.add_node();
    net.add_site(0, "main");
    net.submit_source("main", kProgram);
    benchmark::DoNotOptimize(net.find_site("main"));
  }
  state.SetLabel(typecheck ? "with typecheck" : "compile only");
}
BENCHMARK(BM_SubmitLifecycle)->Arg(0)->Arg(1);

/// Site send path: one site floods another on a different node. Each
/// packet goes from the sender's outbox through Transport::send into
/// the receiving site's inbox; TyCOd only serves the name service.
void BM_SiteSendPath(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  std::uint64_t packets = 0;
  for (auto _ : state) {
    core::Network net;
    net.add_node();
    net.add_site(0, "server");
    net.add_node();
    net.add_site(1, "client");
    net.submit_source("server",
                      "export new sink in "
                      "def S(self) = self?{ val(v) = S[self] } in S[sink]");
    net.submit_source("client",
                      "import sink from server in "
                      "def Flood(i) = if i == 0 then 0 else (sink![i] | "
                      "Flood[i - 1]) in Flood[" + std::to_string(msgs) + "]");
    auto res = net.run();
    packets += res.packets;
  }
  state.counters["packets/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
  state.SetLabel("site send path through the transport");
}
BENCHMARK(BM_SiteSendPath)->Arg(2000);

/// Site pool scaling on one node (threaded driver): S sites each run an
/// independent compute loop; real threads share the machine's cores.
void BM_SitePoolThreaded(benchmark::State& state) {
  const int sites = static_cast<int>(state.range(0));
  const int work = 60000;
  for (auto _ : state) {
    core::Network::Config cfg;
    cfg.mode = core::Network::Mode::kThreaded;
    core::Network net(cfg);
    net.add_node();
    for (int s = 0; s < sites; ++s)
      net.add_site(0, "w" + std::to_string(s));
    for (int s = 0; s < sites; ++s)
      net.submit_source("w" + std::to_string(s),
                        dityco::benchutil::spin_src(work / sites));
    auto res = net.run();
    if (!res.quiescent) state.SkipWithError("did not quiesce");
  }
  state.SetItemsProcessed(state.iterations() * work);
}
BENCHMARK(BM_SitePoolThreaded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
