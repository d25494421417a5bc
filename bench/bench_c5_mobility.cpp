// C5: the applet server of section 4 in both mobility styles, measured.
//
//   * code FETCHING — the client instantiates a remote class; the code is
//     downloaded once and linked (subsequent instantiations hit the
//     dynamic-link cache);
//   * code SHIPPING — the server ships a fresh object closure to the
//     client for every request.
//
// We sweep the applet size (byte-code bytes) and the number of
// activations, and include ablation A2: the fetch path with the
// dynamic-link cache disabled (every activation re-downloads the code).
//
// Expected shape: for repeated activation, fetch-with-cache moves the
// code once (bytes on wire ~constant in K) while shipping moves it K
// times (bytes linear in K); with the cache disabled fetch degenerates
// to shipping-like cost plus an extra request leg. One-shot small
// applets favour shipping (no request round trip).
#include "bench_util.hpp"

using namespace dityco;
using namespace dityco::benchutil;

namespace {

/// An arithmetic expression with `size` operators (code bloat knob).
std::string big_expr(int size) {
  std::string e = "1";
  for (int i = 0; i < size; ++i) e += " + " + std::to_string(i % 97);
  return e;
}

struct Outcome {
  double vtime_us = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fetches = 0;
  std::uint64_t ships = 0;
};

Outcome run_fetch(int size, int activations, bool cache,
                  MetricsJsonEmitter* mj, MonitorFlag* mon, ObsFlags* obsf,
                  const std::string& label,
                  obs::Histogram::Snapshot* e2e = nullptr) {
  auto net = core::Network(sim_config(net::myrinet()));
  net.add_node();
  net.add_site(0, "server");
  net.add_node();
  net.add_site(1, "client");
  net.find_site("client")->set_fetch_cache_enabled(cache);
  if (e2e) net.enable_slo();
  if (mon) mon->attach(net);
  if (obsf) obsf->attach(net);
  net.submit_source("server", "export def Applet(out) = out![" +
                                  big_expr(size) + "] in 0");
  net.submit_source("client",
                    "import Applet from server in "
                    "def Go(i) = if i == 0 then print[\"done\"] else "
                    "new p (Applet[p] | p?(v) = Go[i - 1]) "
                    "in Go[" + std::to_string(activations) + "]");
  auto res = net.run();
  if (mj) mj->record(label, net);
  if (obsf) obsf->report(label, net);
  if (e2e) *e2e = slo_e2e_all(net);
  Outcome o;
  o.vtime_us = res.virtual_time_us;
  o.bytes = res.bytes;
  o.fetches = net.find_site("client")->mobility().fetch_requests;
  return o;
}

Outcome run_ship(int size, int activations, MetricsJsonEmitter* mj,
                 MonitorFlag* mon, ObsFlags* obsf,
                 const std::string& label,
                 obs::Histogram::Snapshot* e2e = nullptr) {
  auto net = core::Network(sim_config(net::myrinet()));
  net.add_node();
  net.add_site(0, "server");
  net.add_node();
  net.add_site(1, "client");
  if (e2e) net.enable_slo();
  if (mon) mon->attach(net);
  if (obsf) obsf->attach(net);
  net.submit_source("server",
                    "def Srv(self) = self?{ get(p) = ((p?(r) = r![" +
                        big_expr(size) +
                        "]) | Srv[self]) } in export new srv in Srv[srv]");
  net.submit_source("client",
                    "import srv from server in "
                    "def Go(i) = if i == 0 then print[\"done\"] else "
                    "new p (srv!get[p] | let v = p![] in Go[i - 1]) "
                    "in Go[" + std::to_string(activations) + "]");
  auto res = net.run();
  if (mj) mj->record(label, net);
  if (obsf) obsf->report(label, net);
  if (e2e) *e2e = slo_e2e_all(net);
  Outcome o;
  o.vtime_us = res.virtual_time_us;
  o.bytes = res.bytes;
  o.ships = net.find_site("server")->mobility().objs_shipped;
  return o;
}

// Both mobility styles under the threaded driver on a real transport:
// the applet's byte-code crosses in-proc queues vs loopback TCP sockets
// (docs/NETWORKING.md). Wall clock, one size/activation point, best of
// `reps`; every repetition's duration lands in `samples`.
double run_wall_style(core::Network::TransportKind t, bool ship, int size,
                      int activations, int reps, MetricsJsonEmitter& mj,
                      ObsFlags& obsf, std::vector<double>& samples) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    core::Network net(wall_config(t));
    net.add_node();
    net.add_site(0, "server");
    net.add_node();
    net.add_site(1, "client");
    obsf.attach(net);
    if (ship) {
      net.submit_source("server",
                        "def Srv(self) = self?{ get(p) = ((p?(r) = r![" +
                            big_expr(size) +
                            "]) | Srv[self]) } in export new srv in Srv[srv]");
      net.submit_source("client",
                        "import srv from server in "
                        "def Go(i) = if i == 0 then print[\"done\"] else "
                        "new p (srv!get[p] | let v = p![] in Go[i - 1]) "
                        "in Go[" + std::to_string(activations) + "]");
    } else {
      net.submit_source("server", "export def Applet(out) = out![" +
                                      big_expr(size) + "] in 0");
      net.submit_source("client",
                        "import Applet from server in "
                        "def Go(i) = if i == 0 then print[\"done\"] else "
                        "new p (Applet[p] | p?(v) = Go[i - 1]) "
                        "in Go[" + std::to_string(activations) + "]");
    }
    core::Network::Result res;
    const double us = run_wall_us(net, &res);
    const std::string label = std::string("wall ") +
                              (ship ? "ship " : "fetch ") + transport_name(t);
    if (rep == 0) {
      mj.record(label, net);
      obsf.report(label, net);
    }
    if (!res.quiescent) std::printf("WARNING: %s did not quiesce\n",
                                    label.c_str());
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
  BenchJson bj("bench_c5_mobility", argc, argv);
  const int sizes[] = {4, 64, 512};
  const int acts[] = {1, 8, 64};

  header("C5: applet mobility, fetch (cached) vs fetch (no cache) vs ship",
         {"applet size (ops)", "activations", "style", "virtual us",
          "wire bytes", "code moves"});
  for (int size : sizes) {
    for (int k : acts) {
      const std::string tag =
          "size=" + std::to_string(size) + " k=" + std::to_string(k);
      const std::string slug_tag =
          "_size" + std::to_string(size) + "_k" + std::to_string(k);
      // Each sim section keeps its synthesized single-sample form (byte
      // comparable with older baselines), plus a companion "_e2e"
      // section holding the per-operation latency histogram from a
      // second, SLO-instrumented run — real percentiles, no p50 == p99
      // collapse when the run has more than one mobility op.
      const auto e2e_section = [&](const std::string& name, double vtime_us,
                                   const obs::Histogram::Snapshot& e2e) {
        if (e2e.count > 0)
          bj.section_hist(name + "_e2e", "virtual_us", e2e, vtime_us);
      };
      obs::Histogram::Snapshot e2e;
      const Outcome f =
          run_fetch(size, k, true, &mj, &mon, &obsf, "fetch+cache " + tag);
      bj.section("c5_sim_fetch_cache" + slug_tag, "virtual_us", k,
                 {f.vtime_us});
      if (bj.enabled())
        run_fetch(size, k, true, nullptr, nullptr, nullptr, "", &e2e);
      e2e_section("c5_sim_fetch_cache" + slug_tag, f.vtime_us, e2e);
      row({fmt_int(size), fmt_int(k), "fetch+cache", fmt(f.vtime_us),
           fmt_int(f.bytes), fmt_int(f.fetches)});
      const Outcome fn =
          run_fetch(size, k, false, &mj, &mon, &obsf, "fetch-nocache " + tag);
      bj.section("c5_sim_fetch_nocache" + slug_tag, "virtual_us", k,
                 {fn.vtime_us});
      e2e = {};
      if (bj.enabled())
        run_fetch(size, k, false, nullptr, nullptr, nullptr, "", &e2e);
      e2e_section("c5_sim_fetch_nocache" + slug_tag, fn.vtime_us, e2e);
      row({fmt_int(size), fmt_int(k), "fetch-nocache (A2)", fmt(fn.vtime_us),
           fmt_int(fn.bytes), fmt_int(fn.fetches)});
      const Outcome s = run_ship(size, k, &mj, &mon, &obsf, "ship " + tag);
      bj.section("c5_sim_ship" + slug_tag, "virtual_us", k, {s.vtime_us});
      e2e = {};
      if (bj.enabled())
        run_ship(size, k, nullptr, nullptr, nullptr, "", &e2e);
      e2e_section("c5_sim_ship" + slug_tag, s.vtime_us, e2e);
      row({fmt_int(size), fmt_int(k), "ship", fmt(s.vtime_us),
           fmt_int(s.bytes), fmt_int(s.ships)});
    }
  }
  std::printf(
      "\nshape check: with the cache, fetch wire bytes stay ~flat as\n"
      "activations grow while ship bytes grow linearly; disabling the\n"
      "cache (A2) makes fetch bytes/time scale like ship plus a request\n"
      "leg. For one-shot applets, ship needs no request round trip.\n");

  header("C5-wall: mobility over a real transport (size=512, k=64, "
         "threaded, wall clock, best of 3)",
         {"transport", "style", "wall us"});
  using TK = core::Network::TransportKind;
  for (TK t : {TK::kInProc, TK::kTcp}) {
    for (bool ship : {false, true}) {
      std::vector<double> samples;
      const double us = run_wall_style(t, ship, 512, 64, 3, mj, obsf,
                                       samples);
      bj.section(std::string("c5_wall_") + (ship ? "ship" : "fetch") +
                     (t == TK::kTcp ? "_tcp_mesh" : "_inproc"),
                 "wall_us", 64, samples);
      row({transport_name(t), ship ? "ship" : "fetch+cache", fmt(us)});
    }
  }
  std::printf(
      "\nshape check: the fetch-vs-ship ordering must survive the move\n"
      "from in-proc queues to loopback sockets — TCP raises the constant\n"
      "per code move, so repeated shipping is hit hardest.\n");
  return 0;
}
