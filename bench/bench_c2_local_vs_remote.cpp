// C2: "the use of multiprocessing nodes is very important since it
// allows to perform optimizations in the case of local (within a node)
// communication ... a single shared-memory reference exchange"
// (section 5). We measure the virtual-time cost of one RPC in four
// placements: same site, two sites on one node (the sender hands the
// packet straight to the receiver's inbox, no daemon hop), two nodes
// over Myrinet, and two nodes over Fast Ethernet.
//
// Expected shape: same-site ≈ same-node ≪ Myrinet ≪ FastEthernet; the
// same-node path also moves zero transport packets.
#include "bench_util.hpp"

using namespace dityco;
using namespace dityco::benchutil;

namespace {

struct Placement {
  const char* name;
  const char* slug;  // stable bench-schema section name
  int nodes;
  bool same_site;
  net::LinkModel link;
};

double run_placement(const Placement& p, int rpcs, std::uint64_t& packets,
                     MetricsJsonEmitter* mj, ObsFlags* obsf,
                     obs::Histogram::Snapshot* e2e = nullptr) {
  core::Network net = [&] {
    if (p.same_site) {
      auto n = core::Network(sim_config(p.link));
      n.add_node();
      n.add_site(0, "server");
      return n;
    }
    auto cfg = sim_config(p.link);
    core::Network n(cfg);
    n.add_node();
    n.add_site(0, "server");
    if (p.nodes == 1) {
      n.add_site(0, "client");
    } else {
      n.add_node();
      n.add_site(1, "client");
    }
    return n;
  }();

  net.submit_source("server", echo_server_src());
  const std::string client = p.same_site ? "server" : "client";
  net.submit_source(client, chained_rpc_client_src("server", rpcs));
  if (e2e) net.enable_slo();
  if (obsf) obsf->attach(net);
  auto res = net.run();
  if (mj) mj->record(p.name, net);
  if (obsf) obsf->report(p.name, net);
  if (e2e) *e2e = slo_e2e_all(net);
  packets = res.packets;
  if (!res.quiescent) std::printf("WARNING: %s did not quiesce\n", p.name);
  return res.virtual_time_us;
}

// Same cross-node RPC chain under the threaded driver on a real
// transport: in-proc shared-memory queues vs the loopback TCP socket
// mesh (docs/NETWORKING.md). Wall clock, best of `reps`.
double run_wall(core::Network::TransportKind t, int rpcs, int reps,
                MetricsJsonEmitter& mj, ObsFlags& obsf,
                std::vector<double>& samples, std::size_t flush_frames = 0) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto cfg = wall_config(t);
    if (flush_frames) cfg.tcp.flush_frames = flush_frames;
    core::Network net(cfg);
    net.add_node();
    net.add_site(0, "server");
    net.add_node();
    net.add_site(1, "client");
    net.submit_source("server", echo_server_src());
    net.submit_source("client", chained_rpc_client_src("server", rpcs));
    obsf.attach(net);
    core::Network::Result res;
    const double us = run_wall_us(net, &res);
    if (!res.quiescent)
      std::printf("WARNING: wall %s did not quiesce\n", transport_name(t));
    if (r == 0) {
      mj.record(std::string("wall ") + transport_name(t), net);
      obsf.report(std::string("wall ") + transport_name(t), net);
    }
    samples.push_back(us);
    if (best == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  MetricsJsonEmitter mj(argc, argv);
  ObsFlags obsf(argc, argv);
  BenchJson bj("bench_c2_local_vs_remote", argc, argv);
  const int rpcs = 200;
  const Placement placements[] = {
      {"same site", "c2_sim_rpc_same_site", 1, true, net::myrinet()},
      {"same node (2 sites)", "c2_sim_rpc_same_node", 1, false,
       net::myrinet()},
      {"cross node, Myrinet", "c2_sim_rpc_myrinet", 2, false,
       net::myrinet()},
      {"cross node, FastEthernet", "c2_sim_rpc_fastethernet", 2, false,
       net::fast_ethernet()},
  };

  header("C2: one RPC by placement (200 chained RPCs, virtual time)",
         {"placement", "total us", "us/RPC", "transport packets"});
  double base = 0;
  for (const auto& p : placements) {
    std::uint64_t packets = 0;
    const double t = run_placement(p, rpcs, packets, &mj, &obsf);
    if (base == 0) base = t;
    bj.section(p.slug, "virtual_us", rpcs, {t});
    if (bj.enabled()) {
      // Companion section from a second, SLO-instrumented run: the
      // plane's per-operation e2e histogram gives real percentiles
      // instead of the single-sample p50 == p99 collapse. Kept under a
      // distinct "_e2e" name because its unit of account (one mobility
      // op, not one RPC) differs from the synthesized section above,
      // which stays byte-comparable with older baselines. The same-site
      // placement has no mobility ops and emits no companion.
      std::uint64_t p2 = 0;
      obs::Histogram::Snapshot e2e;
      run_placement(p, rpcs, p2, nullptr, nullptr, &e2e);
      if (e2e.count > 0)
        bj.section_hist(std::string(p.slug) + "_e2e", "virtual_us", e2e, t);
    }
    row({p.name, fmt(t), fmt(t / rpcs), fmt_int(packets)});
  }
  std::printf(
      "\nshape check: same-node must move 0 packets (shared-memory path)\n"
      "and cross-node cost must rank Myrinet < FastEthernet.\n");

  header("C2-wall: 200 chained cross-node RPCs, threaded driver "
         "(wall clock, best of 3)",
         {"transport", "total us", "us/RPC"});
  using TK = core::Network::TransportKind;
  for (TK t : {TK::kInProc, TK::kTcp}) {
    std::vector<double> samples;
    const double us = run_wall(t, rpcs, 3, mj, obsf, samples);
    bj.section(t == TK::kTcp ? "c2_wall_rpc_tcp_mesh" : "c2_wall_rpc_inproc",
               "wall_us", rpcs, samples);
    row({transport_name(t), fmt(us), fmt(us / rpcs)});
  }
  {
    // Coalescing off (flush_frames=1 → one write per frame): the delta
    // against c2_wall_rpc_tcp_mesh is the writev batching win.
    std::vector<double> samples;
    const double us = run_wall(TK::kTcp, rpcs, 3, mj, obsf, samples, 1);
    bj.section("c2_wall_rpc_tcp_mesh_nocoalesce", "wall_us", rpcs, samples);
    row({"loopback TCP (no coalesce)", fmt(us), fmt(us / rpcs)});
  }
  std::printf(
      "\nshape check: loopback TCP pays framing plus two kernel\n"
      "crossings per leg on top of the in-proc queue handoff, so its\n"
      "us/RPC must be higher; both must quiesce with identical results.\n");
  return 0;
}
