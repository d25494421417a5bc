// C6: two protocol-level measurements.
//
// (a) RPC decomposition (section 3): "a remote communication involves two
//     reduction steps: one to get the method invocation to the target
//     site and the other to consume the message at the target; the former
//     is an asynchronous operation, the latter requires a rendez-vous."
//     We measure one RPC's virtual time and compare against the additive
//     model  2 x link(payload) + local compute, for both network models.
//
// (b) Centralised name-service contention (section 5: "Currently ... the
//     network name service is centralized ... This will change ... for
//     reasons of both redundancy and performance."): S sites importing
//     through the default single shard on node 0; lookups serialise at
//     the service, so import completion time grows with S. (c) shards
//     the directory across the fleet to relieve it.
#include "bench_util.hpp"

using namespace dityco;
using namespace dityco::benchutil;

namespace {

double chained_rpcs(const net::LinkModel& link, int n) {
  auto net = core::Network(sim_config(link));
  net.add_node();
  net.add_site(0, "server");
  net.add_node();
  net.add_site(1, "client");
  net.submit_source("server", echo_server_src());
  net.submit_source("client", chained_rpc_client_src("server", n));
  return net.run().virtual_time_us;
}

/// Marginal cost of one more chained RPC — excludes the one-off
/// name-service import round trip.
double one_rpc(const net::LinkModel& link) {
  return chained_rpcs(link, 2) - chained_rpcs(link, 1);
}

// `ns_shards > 1` spreads the directory over rendezvous-hashed slices,
// one per node (docs/NAMESERVICE.md); `lease_ms > 0` additionally enables
// the client-side lease cache, and `passes` repeats each site's import
// sequence so the cache has something to hit on pass two.
double import_storm(int sites, int imports_each, MetricsJsonEmitter& mj,
                    MonitorFlag& mon, ObsFlags& obsf,
                    std::uint32_t ns_shards = 1, std::uint64_t lease_ms = 0,
                    int passes = 1, const char* tag = "") {
  auto cfg = sim_config(net::myrinet());
  cfg.ns_service_us = 2.0;
  cfg.ns_shards = ns_shards;
  cfg.ns_lease_ms = lease_ms;
  core::Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  std::string exports = "export new a0 in ";
  std::string names;
  for (int i = 1; i < imports_each; ++i)
    exports += "export new a" + std::to_string(i) + " in ";
  net.submit_source("server", exports + "0");
  for (int s = 0; s < sites; ++s) {
    net.add_node();
    const std::string name = "c" + std::to_string(s);
    net.add_site(static_cast<std::size_t>(s) + 1, name);
    std::string prog;
    for (int p = 0; p < passes; ++p)
      for (int i = 0; i < imports_each; ++i)
        prog += "import a" + std::to_string(i) + " from server in ";
    net.submit_source(name, prog + "print[\"ok\"]");
  }
  mon.attach(net);
  obsf.attach(net);
  auto res = net.run();
  const std::string label =
      (ns_shards > 1 ? (lease_ms ? "sharded-cached-ns s=" : "sharded-ns s=")
                     : "central-ns s=") +
      std::to_string(sites) + tag;
  mj.record(label, net);
  obsf.report(label, net);
  if (!res.quiescent) std::printf("WARNING: import storm not quiescent\n");
  return res.virtual_time_us;
}

// The import storm under the threaded driver on a real transport: every
// lookup crosses in-proc queues vs loopback TCP sockets to the node
// hosting the name service (docs/NETWORKING.md). Wall clock, best of
// `reps`; each repetition's duration lands in `samples`.
double wall_import_storm(core::Network::TransportKind t, int sites,
                         int imports_each, int reps, MetricsJsonEmitter& mj,
                         ObsFlags& obsf, std::vector<double>& samples,
                         std::size_t flush_frames = 0) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto cfg = wall_config(t);
    if (flush_frames) cfg.tcp.flush_frames = flush_frames;
    core::Network net(cfg);
    net.add_node();
    net.add_site(0, "server");
    std::string exports;
    for (int i = 0; i < imports_each; ++i)
      exports += "export new a" + std::to_string(i) + " in ";
    net.submit_source("server", exports + "0");
    for (int s = 0; s < sites; ++s) {
      net.add_node();
      const std::string name = "c" + std::to_string(s);
      net.add_site(static_cast<std::size_t>(s) + 1, name);
      std::string prog;
      for (int i = 0; i < imports_each; ++i)
        prog += "import a" + std::to_string(i) + " from server in ";
      net.submit_source(name, prog + "print[\"ok\"]");
    }
    obsf.attach(net);
    core::Network::Result res;
    const double us = run_wall_us(net, &res);
    const std::string label = std::string("wall ns ") + transport_name(t);
    if (rep == 0) {
      mj.record(label, net);
      obsf.report(label, net);
    }
    if (!res.quiescent)
      std::printf("WARNING: %s did not quiesce\n", label.c_str());
    samples.push_back(us);
    if (best == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  MetricsJsonEmitter mj(argc, argv);
  MonitorFlag mon(argc, argv);
  ObsFlags obsf(argc, argv);
  BenchJson bj("bench_c6_rpc_nameservice", argc, argv);
  header("C6a: marginal RPC cost, measured vs additive model",
         {"network", "measured us", "2 x link + compute (model)",
          "ratio"});
  for (bool myri : {true, false}) {
    const auto link = myri ? net::myrinet() : net::fast_ethernet();
    const double measured = one_rpc(link);
    bj.section(myri ? "c6_sim_rpc_marginal_myrinet"
                    : "c6_sim_rpc_marginal_fastethernet",
               "virtual_us", 1, {measured});
    // Payload: a ship-msg packet is a few tens of bytes; compute ~ the
    // loop bookkeeping at 100 instr/us.
    const double model = 2 * link.cost_us(60) + 1.0;
    row({myri ? "Myrinet" : "FastEthernet", fmt(measured), fmt(model),
         fmt(measured / model)});
  }
  std::printf(
      "\nshape check: one remote interaction = SHIPM there + SHIPM back\n"
      "(two asynchronous legs) plus a local rendez-vous at each end, so\n"
      "the ratio against the additive 2-leg model must sit near 1.\n");

  header("C6b: name-service contention (8 imports/site)",
         {"importing sites", "centralised us"});
  const int imports_each = 8;
  for (int s : {1, 2, 4, 8, 16, 32}) {
    const double central = import_storm(s, imports_each, mj, mon, obsf);
    bj.section("c6_sim_import_storm_central_s" + std::to_string(s),
               "virtual_us", s * imports_each, {central});
    row({fmt_int(s), fmt(central)});
  }
  std::printf(
      "\nshape check: centralised total time grows with the number of\n"
      "importing sites (the single shard serialises lookups) — the\n"
      "paper's stated reason to distribute the name service.\n");

  // A storm heavy enough that directory service time dominates the fixed
  // costs sharding adds (remote registration, replica forwards): 32
  // imports per site. All three columns run the identical workload, so
  // the sections compare raw virtual time; the cached column repeats the
  // import list, doubling ops for near-zero added time.
  const int storm_imports = 32;
  header("C6c: sharded name service vs centralised (32 imports/site; "
         "cached column runs the import list twice per site)",
         {"importing sites", "centralised us", "sharded us",
          "sharded+cache us"});
  for (int s : {4, 16}) {
    // One shard slice per node (server's node included), one follower each
    // — the topology ns_smoke.sh runs, minus the kill.
    const auto shards = static_cast<std::uint32_t>(s) + 1;
    const double central =
        import_storm(s, storm_imports, mj, mon, obsf, 1, 0, 1, " heavy");
    const double sharded = import_storm(s, storm_imports, mj, mon, obsf,
                                        shards);
    const double cached = import_storm(s, storm_imports, mj, mon, obsf,
                                       shards, /*lease_ms=*/10000,
                                       /*passes=*/2);
    bj.section("c6_sim_import_storm_central_heavy_s" + std::to_string(s),
               "virtual_us", s * storm_imports, {central});
    bj.section("c6_sim_import_storm_sharded_s" + std::to_string(s),
               "virtual_us", s * storm_imports, {sharded});
    bj.section("c6_sim_import_storm_sharded_cached_s" + std::to_string(s),
               "virtual_us", s * storm_imports * 2, {cached});
    row({fmt_int(s), fmt(central), fmt(sharded), fmt(cached)});
  }
  std::printf(
      "\nshape check: sharding spreads lookup service across every node's\n"
      "slice, so the sharded column must undercut the centralised one at\n"
      "both fleet sizes; the cached column performs twice the imports,\n"
      "yet the second pass is answered from the on-node lease cache, so\n"
      "it must land near the sharded column, far under 2x.\n");

  header("C6-wall: 8-site import storm over a real transport "
         "(8 imports/site, threaded, wall clock, best of 3)",
         {"transport", "wall us"});
  using TK = core::Network::TransportKind;
  for (TK t : {TK::kInProc, TK::kTcp}) {
    std::vector<double> samples;
    const double us =
        wall_import_storm(t, 8, imports_each, 3, mj, obsf, samples);
    bj.section(t == TK::kTcp ? "c6_wall_import_storm_tcp_mesh"
                             : "c6_wall_import_storm_inproc",
               "wall_us", 8 * imports_each, samples);
    row({transport_name(t), fmt(us)});
  }
  {
    // Coalescing off: one write() per frame, same workload. The storm
    // funnels 8 clients into node 0, so this is where batching pays.
    std::vector<double> samples;
    const double us =
        wall_import_storm(TK::kTcp, 8, imports_each, 3, mj, obsf, samples, 1);
    bj.section("c6_wall_import_storm_tcp_mesh_nocoalesce", "wall_us",
               8 * imports_each, samples);
    row({"loopback TCP (no coalesce)", fmt(us)});
  }
  std::printf(
      "\nshape check: every lookup serialises at node 0's name service\n"
      "in both columns; the TCP column adds socket transit per\n"
      "request/reply, so it must be slower but still complete with all\n"
      "sites printing ok.\n");
  return 0;
}
