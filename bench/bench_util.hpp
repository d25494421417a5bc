// Shared helpers for the experiment harness: topology builders, workload
// generators and table printing. Each bench binary regenerates one
// figure/claim of the paper (see DESIGN.md section 5 and EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace dityco::benchutil {

/// Every mobility operation's e2e latency from a network's SLO plane,
/// merged across SHIPM/SHIPO/FETCH — the per-op sample set behind
/// BenchJson::section_hist. Empty when the plane is off or the
/// workload never left a site.
inline obs::Histogram::Snapshot slo_e2e_all(core::Network& net) {
  if (!net.slo_enabled()) return {};
  obs::Histogram::Snapshot s =
      net.slo().e2e_snapshot(obs::SloPlane::Op::kMsg);
  s.merge(net.slo().e2e_snapshot(obs::SloPlane::Op::kObj));
  s.merge(net.slo().e2e_snapshot(obs::SloPlane::Op::kFetch));
  return s;
}

/// Build a network with `nodes` nodes and `sites_per_node` sites each,
/// named s<node>_<k>.
inline core::Network make_cluster(int nodes, int sites_per_node,
                                  core::Network::Config cfg) {
  core::Network net(cfg);
  for (int n = 0; n < nodes; ++n) {
    net.add_node();
    for (int s = 0; s < sites_per_node; ++s)
      net.add_site(static_cast<std::size_t>(n),
                   "s" + std::to_string(n) + "_" + std::to_string(s));
  }
  return net;
}

inline core::Network::Config sim_config(const net::LinkModel& link,
                                        double instr_per_us = 100.0) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kSim;
  cfg.link = link;
  cfg.instr_per_us = instr_per_us;
  return cfg;
}

/// Wall-clock config: the threaded driver over a real transport —
/// kInProc shared-memory queues or a kTcp loopback socket mesh (one
/// TcpTransport per node in this process; docs/NETWORKING.md). Unlike
/// sim_config the numbers are wall time, so runs are only comparable
/// against each other on the same machine.
inline core::Network::Config wall_config(
    core::Network::TransportKind transport) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.transport = transport;
  return cfg;
}

/// Run `net` to quiescence and return elapsed wall-clock microseconds.
inline double run_wall_us(core::Network& net, core::Network::Result* out =
                                                  nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  auto res = net.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (out) *out = res;
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

inline const char* transport_name(core::Network::TransportKind t) {
  return t == core::Network::TransportKind::kTcp ? "loopback TCP"
                                                 : "in-proc";
}

/// A server program answering `val(x, reply)` with x+1, forever.
inline std::string echo_server_src() {
  return "export new svc in "
         "def Serve(self) = self?{ val(x, r) = (r![x + 1] | Serve[self]) } "
         "in Serve[svc]";
}

/// A client performing `n` chained RPCs against `server`'s svc.
inline std::string chained_rpc_client_src(const std::string& server, int n) {
  return "import svc from " + server +
         " in def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
         "else let v = svc![acc] in Loop[i - 1, v] "
         "in Loop[" + std::to_string(n) + ", 0]";
}

/// A client running `threads` independent RPC loops of `n` calls each —
/// the latency-hiding workload (many small threads per site).
inline std::string fanout_rpc_client_src(const std::string& server,
                                         int threads, int n) {
  std::string src = "import svc from " + server +
                    " in def Loop(i, acc) = if i == 0 then print[\"t\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] in (";
  for (int t = 0; t < threads; ++t) {
    if (t) src += " | ";
    src += "Loop[" + std::to_string(n) + ", " + std::to_string(t * 1000) +
           "]";
  }
  return src + ")";
}

/// Pure local compute: a recursion burning roughly `iters` reductions.
inline std::string spin_src(int iters) {
  return "def Spin(i) = if i == 0 then 0 else Spin[i - 1] in Spin[" +
         std::to_string(iters) + "]";
}

/// Markdown-style table row printing.
inline void row(const std::vector<std::string>& cells) {
  std::string line = "|";
  for (const auto& c : cells) line += " " + c + " |";
  std::puts(line.c_str());
}

inline std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

inline std::string fmt_int(std::uint64_t v) { return std::to_string(v); }

inline void header(const std::string& title,
                   const std::vector<std::string>& cols) {
  std::printf("\n### %s\n", title.c_str());
  row(cols);
  std::vector<std::string> dashes(cols.size(), "---");
  row(dashes);
}

/// `--metrics-json <path>` support: collects one metrics snapshot per
/// measured configuration and writes them all as a JSON array on
/// destruction. Benches call `record()` after each run; with no
/// `--metrics-json` flag everything is a no-op.
class MetricsJsonEmitter {
 public:
  MetricsJsonEmitter(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--metrics-json") path_ = argv[i + 1];
  }
  ~MetricsJsonEmitter() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << "  {\"label\": \"" << obs::json_escape(entries_[i].first)
          << "\",\n   \"metrics\": " << entries_[i].second << "}";
      if (i + 1 < entries_.size()) out << ",";
      out << "\n";
    }
    out << "]\n";
  }

  bool enabled() const { return !path_.empty(); }

  /// Capture the network's registry under `label` (call after run()).
  void record(const std::string& label, core::Network& net) {
    if (path_.empty()) return;
    entries_.emplace_back(label, net.metrics().expose_json());
  }

 private:
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// `--bench-json <path>` support: the versioned bench result schema
/// (schema_version 2, one document per bench binary). Each measured
/// section records a STABLE name, its measurement unit ("virtual_us"
/// for simulated time, "wall_us" for wall clock), the operation count
/// per run and the raw per-run durations; the emitter derives
/// throughput (msgs_per_sec) and per-operation p50/p99 latency.
/// Sections are compared across commits BY NAME — rename one only with
/// an EXPERIMENTS.md note mapping old to new ("bench schema v2" there
/// records the v1 -> v2 renames). tools/bench_baseline.sh assembles the
/// per-binary documents into the committed BENCH_*.json baseline.
/// Without the flag everything is a no-op.
class BenchJson {
 public:
  BenchJson(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--bench-json") path_ = argv[i + 1];
  }
  ~BenchJson() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    out << "{\n  \"schema\": \"dityco-bench-v2\",\n"
        << "  \"schema_version\": 2,\n"
        << "  \"bench\": \"" << bench_ << "\",\n  \"sections\": [\n";
    for (std::size_t i = 0; i < sections_.size(); ++i)
      out << sections_[i] << (i + 1 < sections_.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
  }

  bool enabled() const { return !path_.empty(); }

  /// One measured section: `run_us` holds one duration per repetition
  /// of a workload of `ops_per_run` operations. Percentiles are over
  /// the per-operation latencies run_us[i] / ops_per_run (a single
  /// deterministic sim run yields p50 == p99 == the mean, by design).
  void section(const std::string& name, const std::string& unit,
               double ops_per_run, std::vector<double> run_us) {
    if (path_.empty() || run_us.empty() || ops_per_run <= 0) return;
    std::vector<double> per_op;
    double total = 0;
    per_op.reserve(run_us.size());
    for (double us : run_us) {
      total += us;
      per_op.push_back(us / ops_per_run);
    }
    std::sort(per_op.begin(), per_op.end());
    const auto pct = [&](double q) {
      const auto idx =
          static_cast<std::size_t>(q * static_cast<double>(per_op.size()));
      return per_op[std::min(idx, per_op.size() - 1)];
    };
    const double ops = ops_per_run * static_cast<double>(run_us.size());
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"unit\": \"%s\", \"ops_per_run\": %.0f,"
        " \"runs\": %zu, \"total_us\": %.2f, \"msgs_per_sec\": %.1f,"
        " \"p50_us\": %.3f, \"p99_us\": %.3f}",
        name.c_str(), unit.c_str(), ops_per_run, run_us.size(), total,
        total > 0 ? ops / (total / 1e6) : 0.0, pct(0.50), pct(0.99));
    sections_.emplace_back(buf);
  }

  /// One measured section whose per-operation latency distribution comes
  /// from a request-ledger histogram (every mobility operation's e2e
  /// latency, in nanoseconds)
  /// instead of being synthesized from run totals. This is what fixes the
  /// p50 == p99 collapse for single-run sim sections: the histogram holds
  /// one sample per operation, so the tail is real.
  void section_hist(const std::string& name, const std::string& unit,
                    const obs::Histogram::Snapshot& s, double total_us) {
    if (path_.empty() || s.count == 0) return;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"unit\": \"%s\", \"ops_per_run\": %llu,"
        " \"runs\": 1, \"total_us\": %.2f, \"msgs_per_sec\": %.1f,"
        " \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f,"
        " \"max_us\": %.3f}",
        name.c_str(), unit.c_str(),
        static_cast<unsigned long long>(s.count), total_us,
        total_us > 0 ? static_cast<double>(s.count) / (total_us / 1e6) : 0.0,
        s.quantile(0.50) / 1e3, s.quantile(0.99) / 1e3,
        s.quantile(0.999) / 1e3, static_cast<double>(s.max) / 1e3);
    sections_.emplace_back(buf);
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> sections_;
};

/// `--monitor <port>` support: attach TyCOmon to each measured network so
/// a long sweep can be watched live (`curl localhost:<port>/metrics`).
/// With port 0 an ephemeral port is chosen per network and printed to
/// stderr; without the flag attach() is a no-op.
class MonitorFlag {
 public:
  MonitorFlag(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--monitor") {
        enabled_ = true;
        port_ = std::atoi(argv[i + 1]);
      }
  }

  bool enabled() const { return enabled_; }

  /// Start TyCOmon on `net` (call after the topology is built, before
  /// run()). Enables tracing so /trace has content.
  void attach(core::Network& net) {
    if (!enabled_) return;
    if (!net.tracing_enabled()) net.enable_tracing();
    const std::uint16_t p =
        net.start_monitor(static_cast<std::uint16_t>(port_));
    if (p == 0)
      std::fprintf(stderr, "monitor: cannot bind port %d\n", port_);
    else
      std::fprintf(stderr, "monitor: http://127.0.0.1:%u\n", p);
  }

 private:
  bool enabled_ = false;
  int port_ = 0;
};

/// `--profile` / `--flight` support: switch the sampled VM profiler
/// and/or tail-based trace retention on for every measured network.
/// After each run the profiler's folded stacks (`--profile`) and the
/// flight buffer's promotion counters against the request ledger's
/// completions (`--flight`) go to stderr, so the measured stdout tables
/// stay byte-identical. Without the flags everything is a no-op — the
/// "observability off" bench baseline.
class ObsFlags {
 public:
  ObsFlags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--profile") profile_ = true;
      if (arg == "--flight") flight_ = true;
      if (arg == "--flight-slow-us" && i + 1 < argc) {
        flight_ = true;
        slow_us_ = std::atof(argv[i + 1]);
      }
    }
  }

  bool profile() const { return profile_; }
  bool flight() const { return flight_; }

  /// Call after the topology is built, before run().
  void attach(core::Network& net) {
    if (profile_) net.enable_profiling(1024);
    if (flight_) {
      obs::FlightPolicy fp;
      // Default: keep the slowest ~1% of mobility completions; an
      // explicit --flight-slow-us threshold overrides the percentile.
      if (slow_us_ > 0)
        fp.slow_us = slow_us_;
      else
        fp.slow_pctl = 0.99;
      net.enable_flight(fp);
    }
  }

  /// Call after run(); `label` names the measured configuration.
  void report(const std::string& label, core::Network& net) {
    if (profile_) {
      std::fprintf(stderr, "-- profile [%s] --\n%s", label.c_str(),
                   net.profile_folded().c_str());
    }
    if (flight_) {
      using R = obs::FlightRecorder::Reason;
      auto& f = net.flight();
      std::fprintf(stderr,
                   "-- flight [%s] promoted slow=%llu error=%llu "
                   "starved=%llu rel=%llu of %llu completions --\n",
                   label.c_str(),
                   static_cast<unsigned long long>(f.promoted_count(R::kSlow)),
                   static_cast<unsigned long long>(
                       f.promoted_count(R::kError)),
                   static_cast<unsigned long long>(
                       f.promoted_count(R::kStarved)),
                   static_cast<unsigned long long>(
                       f.promoted_count(R::kRelAnomaly)),
                   static_cast<unsigned long long>(net.slo().completed()));
    }
  }

 private:
  bool profile_ = false;
  bool flight_ = false;
  double slow_us_ = 0;
};

}  // namespace dityco::benchutil
