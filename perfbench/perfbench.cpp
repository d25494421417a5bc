// perfbench: the repository benchmark (BENCHMARK.json, perfbench/README.md).
//
//   perfbench --workload <compute|rpc_local|ship_tcp|jobs> --seed N
//             --seconds S --trace <0|1>
//
// Every workload is a stream of *jobs*. An instance builds a fresh
// core::Network, submits the workload's server program (set-up), then
// runs `jobs` jobs on it; a job submits a client program and drives the
// network to quiescence. compute, rpc_local and ship_tcp use one job per
// instance, so each job sees a fresh network; jobs runs a long-lived
// server under many short client programs.
//
// --trace 0 runs instances under the threaded driver (Network::run) for
// the end-to-end metrics. --trace 1 runs the same instances untraced for
// half the time, then drives them with this file's own single-threaded
// loop, timing each call into a layer's public function; the per-layer
// metrics come from those spans plus the runtime's counters.
//
// Every job's output is checked against a closed form computed from the
// seed; a small instance is checked against calc::Reducer; per-job
// counts must repeat exactly; ship_tcp asserts the applet really ships.
// The last line of stdout is one JSON object; any failed check makes the
// exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "calculus/reducer.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"

namespace {

using namespace dityco;
using Clock = std::chrono::steady_clock;
using TK = core::Network::TransportKind;

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// Keep the process (and every thread the runtime starts) on the first
/// two CPUs it may use. On four unpinned vCPUs the threaded driver's
/// placement moved compute's job p50 by 24% between runs of one build.
void pin_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t pick;
  CPU_ZERO(&pick);
  int n = 0;
  for (int c = 0; c < CPU_SETSIZE && n < 2; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &pick);
      ++n;
    }
  if (n > 0) sched_setaffinity(0, sizeof pick, &pick);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// splitmix64: the workload's constants are a pure function of the seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {  // [lo, hi)
    return lo + static_cast<std::int64_t>(next() %
                                          static_cast<std::uint64_t>(hi - lo));
  }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r{a * 0x2545f4914f6cdd1dull ^ b};
  return r.next();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Source {
  std::string site, text;
};

struct Job {
  Source program;                       // submitted at the client site
  std::multiset<std::string> expected;  // output lines at the client site
};

constexpr std::int64_t kModulus = 1000003;  // keeps applet values in int64

class Workload {
 public:
  struct Size {
    int loops = 0, per_loop = 0, jobs = 1, applet_steps = 0;
  };

  Workload(std::string name, std::uint64_t seed, Size size)
      : name_(std::move(name)), seed_(seed), size_(size) {
    Rng r{mix(seed_, 0x5eed)};
    value_ = r.range(1, 1000);
    step_ = r.range(1, 1000);
    for (int i = 0; i < size_.applet_steps; ++i)
      chain_.push_back({r.range(1, 1000), r.range(2, 1000)});
    if (name_ == "compute") {
      sites_ = {{0, "main"}};
      client_ = "main";
    } else if (name_ == "rpc_local") {
      sites_ = {{0, "server"}, {0, "client"}};
    } else if (name_ == "ship_tcp") {
      sites_ = {{0, "server"}, {1, "client"}};
      transport_ = TK::kTcp;
    } else if (name_ == "jobs") {
      sites_ = {{0, "server"}, {1, "client"}};
    } else {
      throw std::invalid_argument("unknown workload " + name_);
    }
  }

  const std::string& name() const { return name_; }
  const Size& size() const { return size_; }
  TK transport() const { return transport_; }
  const std::vector<std::pair<std::size_t, std::string>>& sites() const {
    return sites_;
  }
  const std::string& client() const { return client_; }
  /// The op whose rate ops_per_s reports: a job on `jobs`, one loop
  /// iteration (a cell read, an RPC, an applet activation) elsewhere.
  std::uint64_t ops_per_job() const {
    return name_ == "jobs" ? 1
                           : static_cast<std::uint64_t>(size_.loops) *
                                 static_cast<std::uint64_t>(size_.per_loop);
  }

  /// The server program an instance submits at set-up.
  Source setup_program() const {
    const std::string v = std::to_string(value_), k = std::to_string(step_);
    if (name_ == "compute")
      return {"main",
              "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]) } "
              "in Cell[cell, " + v + "]"};
    if (name_ == "ship_tcp")
      return {"server",
              "def Srv(self) = self?{ get(p, x) = ((p?(r) = r![" +
                  applet_expr() +
                  "]) | Srv[self]) } in export new srv in Srv[srv]"};
    return {"server",
            "export new svc in def Serve(self) = "
            "self?{ val(x, r) = (r![x + " + k + "] | Serve[self]) } "
            "in Serve[svc]"};
  }

  /// Job `index` of an instance (its constants depend on the seed and the
  /// index, so every job is a fresh program).
  Job job(std::uint64_t index) const {
    Rng r{mix(seed_, 0x10b + index)};
    const int n = size_.per_loop;
    const std::string ns = std::to_string(n);
    std::string body, tag, loop;
    if (name_ == "compute") {
      tag = "loop";
      loop = "new r (cell!read[r] | r?(x) = Loop[id, i - 1, acc + x + i])";
    } else if (name_ == "ship_tcp") {
      tag = "ship";
      loop = "new p (srv!get[p, acc] | let v = p![] in Loop[id, i - 1, v])";
    } else {
      tag = "rpc";
      loop = "let y = svc![acc] in Loop[id, i - 1, y + i]";
    }
    Job j;
    std::string starts;
    for (int id = 0; id < size_.loops; ++id) {
      const std::int64_t a = r.range(0, kModulus);
      starts += (id ? " | Loop[" : "Loop[") + std::to_string(id) + ", " + ns +
                ", " + std::to_string(a) + "]";
      j.expected.insert(tag + " " + std::to_string(id) + " " +
                        std::to_string(expected_acc(a)));
    }
    body = "def Loop(id, i, acc) = if i == 0 then print[\"" + tag +
           "\", id, acc] else " + loop + " in " + starts;
    if (name_ == "ship_tcp") body = "import srv from server in " + body;
    if (name_ == "rpc_local" || name_ == "jobs")
      body = "import svc from server in " + body;
    j.program = {client_, body};
    return j;
  }

  /// ship_tcp: operators the applet's body evaluates per activation (each
  /// depends on the request argument, so none can be folded).
  int applet_operators() const { return 3 * size_.applet_steps; }

 private:
  std::string applet_expr() const {
    std::string e = "x";
    for (const auto& [a, b] : chain_)
      e = "((" + e + " + " + std::to_string(a) + ") * " + std::to_string(b) +
          " % " + std::to_string(kModulus) + ")";
    return e;
  }

  // Closed forms of each loop's final accumulator.
  std::int64_t expected_acc(std::int64_t a) const {
    const std::int64_t n = size_.per_loop;
    if (name_ == "compute") return a + n * value_ + n * (n + 1) / 2;
    if (name_ == "ship_tcp") {
      for (int i = 0; i < n; ++i)
        for (const auto& [c, m] : chain_) a = (a + c) * m % kModulus;
      return a;
    }
    return a + n * step_ + n * (n + 1) / 2;
  }

  std::string name_;
  std::uint64_t seed_;
  Size size_;
  TK transport_ = TK::kInProc;
  std::vector<std::pair<std::size_t, std::string>> sites_;
  std::string client_ = "client";
  std::int64_t value_ = 0, step_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> chain_;
};

// Input sizes, fixed per workload (perfbench/README.md records them).
Workload::Size default_size(const std::string& w) {
  if (w == "compute") return {8, 250, 1, 0};
  if (w == "rpc_local") return {16, 64, 1, 0};
  if (w == "ship_tcp") return {8, 24, 1, 16};
  if (w == "jobs") return {4, 8, 1000, 0};
  throw std::invalid_argument("unknown workload " + w);
}

// ---------------------------------------------------------------------
// Counters read from the runtime's public stats
// ---------------------------------------------------------------------

/// Runtime counters a job is measured by; a job's counts are the
/// difference of two readings.
enum Counter : std::size_t {
  kInstructions, kCommReductions, kInstReductions, kChannelsFreed,
  kMsgsReceived, kObjsReceived, kLocalDeliveries, kNsLookups, kNsReplies,
  kPackets, kBytes, kWritevCalls, kWritevFrames, kBackpressureWaits,
  kPoolHits, kPoolMisses, kNumCounters
};
constexpr const char* kCounterNames[kNumCounters] = {
    "vm.instructions", "vm.comm_reductions", "vm.inst_reductions",
    "gc.channels_freed", "site.msgs_received", "site.objs_received",
    "daemon.local_deliveries", "ns.lookups", "ns.replies", "net.packets",
    "net.bytes", "tcp.writev_calls", "tcp.writev_frames",
    "tcp.backpressure_waits", "tcp.pool_hits", "tcp.pool_misses"};
using Counts = std::array<std::uint64_t, kNumCounters>;

Counts operator-(Counts a, const Counts& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

// Counts that describe a workload's shape: they must repeat exactly.
constexpr Counter kExactCounts[] = {kInstructions, kCommReductions,
                                    kInstReductions, kPackets,
                                    kLocalDeliveries};

Counts read_counts(core::Network& net) {
  Counts c{};
  for (const auto& n : net.nodes()) {
    c[kLocalDeliveries] += n->local_deliveries();
    for (const auto& s : n->sites()) {
      const vm::Machine& m = s->machine();
      c[kInstructions] += m.stats().instructions.value();
      c[kCommReductions] += m.stats().comm_reductions.value();
      c[kInstReductions] += m.stats().inst_reductions.value();
      c[kChannelsFreed] += m.gc_stats().channels_freed.value();
      c[kMsgsReceived] += s->mobility().msgs_received.value();
      c[kObjsReceived] += s->mobility().objs_received.value();
    }
  }
  c[kNsLookups] = net.name_service().stats().lookups.value();
  c[kNsReplies] = net.name_service().stats().replies.value();
  net::Transport& t = net.transport();
  c[kPackets] = t.packets_sent();
  c[kBytes] = t.bytes_sent();
  if (auto* mesh = dynamic_cast<net::TcpMeshTransport*>(&t)) {
    for (std::size_t i = 0; i < mesh->parts_count(); ++i) {
      const auto& s = mesh->part(i).stats();
      c[kWritevCalls] += s.writev_calls.load();
      c[kWritevFrames] += s.writev_frames.load();
      c[kBackpressureWaits] += s.backpressure_waits.load();
      const auto ps = mesh->part(i).pool_stats();
      c[kPoolHits] += ps.hits;
      c[kPoolMisses] += ps.misses;
    }
  }
  return c;
}

// ---------------------------------------------------------------------
// Instances and jobs
// ---------------------------------------------------------------------

/// Time in each layer's public entry points during one traced job (µs).
struct Spans {
  double submit = 0, run_slice = 0, process_incoming = 0, pump_out = 0,
         pump_in = 0, collect = 0;
  std::uint64_t collect_passes = 0, packets_applied = 0;
  double sum() const {
    return submit + run_slice + process_incoming + pump_out + pump_in +
           collect;
  }
  template <class F>
  void each(F&& f) const {
    f("compiler.submit", submit);
    f("vm.run_slice", run_slice);
    f("site.process_incoming", process_incoming);
    f("daemon.pump_out", pump_out);
    f("daemon.pump_in", pump_in);
    f("gc.collect", collect);
  }
};

struct JobResult {
  std::uint64_t index = 0;  // job index within its instance
  double wall_us = 0;       // submit → quiescent
  double cpu_us = 0;
  Counts counts;
  Spans spans;              // traced jobs only
  std::size_t exports_live = 0;
  std::string failure;      // empty when the job passed every check
};

class Instance {
 public:
  Instance(const Workload& w, core::Network::Mode mode, Spans* spans)
      : w_(w) {
    core::Network::Config cfg;
    cfg.mode = mode;
    cfg.transport = w.transport();
    net_ = std::make_unique<core::Network>(cfg);
    std::size_t nodes = 0;
    for (const auto& [node, site] : w.sites())
      nodes = std::max(nodes, node + 1);
    for (std::size_t i = 0; i < nodes; ++i) net_->add_node();
    for (const auto& [node, site] : w.sites()) net_->add_site(node, site);
    net_->transport();  // build the transport (sockets for TCP) now
    submit(w.setup_program(), spans);
  }

  core::Network& net() { return *net_; }

  JobResult run_job(std::uint64_t index, bool traced) {
    JobResult r;
    r.index = index;
    const Job job = w_.job(index);
    const std::size_t errors0 = net_->all_errors().size();
    const Counts c0 = read_counts(*net_);
    const double cpu0 = cpu_us();
    const auto t0 = Clock::now();
    bool quiescent = false;
    if (traced) {
      submit(job.program, &r.spans);
      quiescent = drive_traced(r.spans);
    } else {
      submit(job.program, nullptr);
      const auto res = net_->run();
      quiescent = res.quiescent && !res.stalled && !res.budget_exhausted;
    }
    r.wall_us = since_us(t0);
    r.cpu_us = cpu_us() - cpu0;
    r.counts = read_counts(*net_) - c0;
    for (const auto& n : net_->nodes())
      for (const auto& s : n->sites())
        r.exports_live += s->machine().live_exports();
    // Checks: quiescence, no runtime error, output as the closed form says.
    const auto errors = net_->all_errors();
    std::multiset<std::string> got;
    for (const auto& n : net_->nodes())
      for (const auto& s : n->sites()) {
        if (s->name() == w_.client())
          got.insert(s->machine().output().begin(),
                     s->machine().output().end());
        else if (!s->machine().output().empty())
          r.failure = "unexpected output at " + s->name();
        s->machine().clear_output();
      }
    if (!quiescent)
      r.failure = "not quiescent";
    else if (errors.size() != errors0)
      r.failure = "runtime error: " + errors.back();
    else if (got != job.expected)
      r.failure = "output differs from the closed form";
    return r;
  }

 private:
  void submit(const Source& p, Spans* spans) {
    const auto t0 = Clock::now();
    net_->submit_source(p.site, p.text);
    if (spans) spans->submit += since_us(t0);
  }

  /// The traced driver: the sequential pump of Network::run, single
  /// threaded, with each call into a layer's public function timed.
  bool drive_traced(Spans& sp) {
    net::Transport& t = net_->transport();
    const std::uint64_t slice = net_->config().slice;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      std::size_t moved = 0;
      std::uint64_t executed = 0;
      for (const auto& n : net_->nodes()) {
        const auto t0 = Clock::now();
        moved += n->pump_incoming(t, 0);
        sp.pump_in += since_us(t0);
      }
      for (const auto& n : net_->nodes()) {
        for (std::size_t i = 0; i < n->sites().size(); ++i) {
          core::Site& s = *n->sites()[i];
          auto t0 = Clock::now();
          const std::size_t applied = s.process_incoming();
          sp.process_incoming += since_us(t0);
          sp.packets_applied += applied;
          moved += applied;
          t0 = Clock::now();
          executed += s.run_slice(slice);
          sp.run_slice += since_us(t0);
          t0 = Clock::now();
          moved += n->pump_site_outgoing(t, i, 0);
          sp.pump_out += since_us(t0);
        }
      }
      if (Clock::now() > deadline) return false;
      if (moved != 0 || executed != 0 || t.in_flight() != 0) continue;
      // Quiescent: a GC pass; keep pumping while it queued RELs.
      const auto t0 = Clock::now();
      std::size_t queued = 0;
      for (const auto& n : net_->nodes())
        for (const auto& s : n->sites()) queued += s->collect(false);
      sp.collect += since_us(t0);
      ++sp.collect_passes;
      if (queued == 0) break;
    }
    if (net_->name_service().parked() != 0) return false;
    for (const auto& n : net_->nodes())
      for (const auto& s : n->sites())
        if (s->machine().parked() != 0) return false;
    return true;
  }

  const Workload& w_;
  std::unique_ptr<core::Network> net_;
};

// ---------------------------------------------------------------------
// Checks that run once per invocation, untimed
// ---------------------------------------------------------------------

/// The small instance against the reference reducer: output multisets
/// and SHIPM/SHIPO counts against the sites' mobility counters.
std::string reducer_check(const std::string& name, std::uint64_t seed) {
  Workload::Size sz = default_size(name);
  sz.loops = std::min(sz.loops, 3);
  sz.per_loop = 3;
  sz.jobs = std::min(sz.jobs, 2);
  Workload w(name, seed, sz);
  calc::Reducer red;
  red.add_program(w.setup_program().site,
                  comp::parse_program(w.setup_program().text));
  Instance inst(w, core::Network::Mode::kThreaded, nullptr);
  std::multiset<std::string> want;
  calc::Reducer::Result rr;
  for (int j = 0; j < sz.jobs; ++j) {
    const Job job = w.job(static_cast<std::uint64_t>(j));
    red.add_program(job.program.site, comp::parse_program(job.program.text));
    rr = red.run();
    if (!rr.quiescent || !rr.errors.empty())
      return "reducer did not reach quiescence cleanly";
    want.insert(job.expected.begin(), job.expected.end());
    const JobResult jr = inst.run_job(static_cast<std::uint64_t>(j), false);
    if (!jr.failure.empty()) return "small instance: " + jr.failure;
  }
  const auto& out = red.output(w.client());
  const std::multiset<std::string> red_out(out.begin(), out.end());
  if (red_out != want) return "reducer output differs from the closed form";
  std::uint64_t shipm = 0, shipo = 0;
  for (const auto& n : inst.net().nodes())
    for (const auto& s : n->sites()) {
      shipm += s->mobility().msgs_shipped.value();
      shipo += s->mobility().objs_shipped.value();
    }
  if (shipm != rr.counters.shipm || shipo != rr.counters.shipo)
    return "SHIPM/SHIPO " + std::to_string(shipm) + "/" +
           std::to_string(shipo) + " vs reducer " +
           std::to_string(rr.counters.shipm) + "/" +
           std::to_string(rr.counters.shipo);
  return "";
}

/// ship_tcp: code bytes of the server program's largest segment, the
/// applet object's (its body is the whole request-dependent chain).
std::size_t applet_code_bytes(const Workload& w) {
  const vm::Program p = comp::compile_source(w.setup_program().text);
  std::size_t best = 0;
  for (const auto& s : p.segments)
    best = std::max(best, s.code.size() * sizeof(std::uint32_t));
  return best;
}

// ---------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Least-squares slope of y over x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  if (x.size() < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  return den == 0 ? 0 : (n * sxy - sx * sy) / den;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name, unit;
  double value;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Exact-count guard: every job at the same position of its instance must
/// produce identical shape counts, whatever the seed, the run or the driver.
struct ShapeGuard {
  std::map<std::uint64_t, Counts> ref;  // first counts seen per position
  std::string error;

  void check(const JobResult& j) {
    const auto [it, fresh] = ref.emplace(j.index, j.counts);
    if (fresh || !error.empty()) return;
    for (const Counter k : kExactCounts)
      if (j.counts[k] != it->second[k]) {
        error = std::string(kCounterNames[k]) + " of job " +
                std::to_string(j.index) + ": " + std::to_string(j.counts[k]) +
                " != " + std::to_string(it->second[k]);
        return;
      }
  }
};

/// What a phase keeps about its jobs. Untraced jobs leave only their wall
/// and CPU times, so the bookkeeping stays out of peak_rss_mb.
struct Phase {
  std::vector<double> setup_us;
  std::vector<double> setup_submit_us;  // traced: the set-up's one submit
  std::vector<double> wall_us, cpu_us;  // every job, in order
  std::vector<JobResult> traced;        // traced phase: every job in full
  JobResult last;                       // the last job in full
  std::uint64_t failed_jobs = 0;
  std::string first_failure;
};

/// Runs whole instances until `seconds` have passed (the last instance
/// always completes, so every run sees the same mix of job positions).
Phase run_phase(const Workload& w, double seconds, bool traced,
                ShapeGuard& guard) {
  Phase ph;
  const auto start = Clock::now();
  using Mode = core::Network::Mode;
  const Mode mode = traced ? Mode::kSequential : Mode::kThreaded;
  do {
    Spans setup_spans;
    const auto t0 = Clock::now();
    Instance inst(w, mode, traced ? &setup_spans : nullptr);
    ph.setup_us.push_back(since_us(t0));
    if (traced) ph.setup_submit_us.push_back(setup_spans.submit);
    for (int j = 0; j < w.size().jobs; ++j) {
      JobResult r = inst.run_job(static_cast<std::uint64_t>(j), traced);
      guard.check(r);
      if (!r.failure.empty() && ph.failed_jobs++ == 0)
        ph.first_failure = "job " + std::to_string(j) + ": " + r.failure;
      ph.wall_us.push_back(r.wall_us);
      ph.cpu_us.push_back(r.cpu_us);
      if (traced) ph.traced.push_back(r);
      ph.last = std::move(r);
      if (w.size().jobs > 1) {
        // Long-lived instances: time a throwaway set-up after every job,
        // so set-up samples span the run like the one-job workloads'.
        const auto t1 = Clock::now();
        Instance spare(w, mode, nullptr);
        ph.setup_us.push_back(since_us(t1));
      }
    }
  } while (since_us(start) < seconds * 1e6);
  return ph;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// End-to-end metrics of the untraced phase. Rates, p50 and p95 are taken
/// per chunk of 250 consecutive jobs (p95 has 12.5 jobs beyond it there)
/// and the median chunk is reported, so a few seconds of noise on a
/// shared host move one chunk, not the result. The tail is p95, not p99:
/// a run's p99 moved by a quarter to a third between runs while the host
/// was noisy. p99 over all jobs is printed, not reported.
std::vector<Metric> end_to_end(const Workload& w, const Phase& ph) {
  const std::size_t chunk = 250;
  const std::size_t n = ph.wall_us.size();
  std::vector<double> wall_ms, rate, p50, p95, cpu;
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t end = std::min(n, i + chunk);
    if (end - i < chunk && i > 0) break;  // a partial tail chunk
    std::vector<double> ms;
    double wall_us = 0, cpu_us = 0;
    for (std::size_t k = i; k < end; ++k) {
      ms.push_back(ph.wall_us[k] / 1e3);
      wall_us += ph.wall_us[k];
      cpu_us += ph.cpu_us[k];
    }
    const double ops = static_cast<double>((end - i) * w.ops_per_job());
    rate.push_back(ops / (wall_us / 1e6));
    cpu.push_back(cpu_us / ops);
    p50.push_back(median(ms));
    p95.push_back(quantile(ms, 0.95));
  }
  for (const double us : ph.wall_us) wall_ms.push_back(us / 1e3);
  std::printf("\n-- end-to-end (threaded driver, untraced; %zu jobs in %zu "
              "chunks, %zu set-ups) --\n",
              n, rate.size(), ph.setup_us.size());
  std::printf("%-34s %16.6g ms (all %zu jobs; printed only)\n", "job_ms_p99",
              quantile(wall_ms, 0.99), n);
  return {
      {"setup_s", "s", median(ph.setup_us) / 1e6},
      {"ops_per_s", "1/s", median(rate)},
      {"job_ms_p50", "ms", median(p50)},
      {"job_ms_p95", "ms", median(p95)},
      {"cpu_us_per_op", "us", median(cpu)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

/// Per-layer metrics: span times from the traced phase (medians over
/// jobs), counts of the last job of an instance (every instance's last job
/// has the same position, so the counts compare across runs), transport
/// counters from the untraced phase. Also prints the reconciliation and,
/// per span, the growth per 1000 jobs of an instance.
std::vector<Metric> per_layer(const Workload& w, const Phase& ph,
                              const Phase& tr) {
  const double opj = static_cast<double>(w.ops_per_job());
  std::map<std::string, std::vector<double>> span_us;
  std::vector<double> index, traced_wall, unattributed, collect_per_pass,
      ns_per_instr;
  std::vector<double> submit_per_call = tr.setup_submit_us;
  for (const JobResult& j : tr.traced) {
    j.spans.each([&](const char* n, double v) { span_us[n].push_back(v); });
    index.push_back(static_cast<double>(j.index));
    traced_wall.push_back(j.wall_us);
    unattributed.push_back(j.wall_us - j.spans.sum());
    submit_per_call.push_back(j.spans.submit);  // one submit per job
    if (j.spans.collect_passes)
      collect_per_pass.push_back(j.spans.collect /
                                 static_cast<double>(j.spans.collect_passes));
    if (const auto n = j.counts[kInstructions])
      ns_per_instr.push_back(j.spans.run_slice * 1e3 / static_cast<double>(n));
  }
  const std::vector<double>& untraced_wall = ph.wall_us;
  auto per_op = [&](const char* span) { return median(span_us[span]) / opj; };
  const JobResult& tl = tr.last;
  const Counts& t = tl.counts;
  const Counts& u = ph.last.counts;
  auto count = [](const Counts& c, Counter k) {
    return static_cast<double>(c[k]);
  };
  auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };
  const double acquires =
      count(u, kPoolHits) + count(u, kPoolMisses);
  std::vector<Metric> out = {
      {"compiler.submit_us", "us/call", median(submit_per_call)},
      {"vm.run_slice_us", "us/op", per_op("vm.run_slice")},
      {"vm.ns_per_instruction", "ns", median(ns_per_instr)},
      {"vm.instructions", "count", count(t, kInstructions)},
      {"vm.comm_reductions", "count", count(t, kCommReductions)},
      {"vm.inst_reductions", "count", count(t, kInstReductions)},
      {"site.process_incoming_us", "us/op", per_op("site.process_incoming")},
      {"site.packets_applied", "count",
       static_cast<double>(tl.spans.packets_applied)},
      {"site.msgs_received", "count", count(t, kMsgsReceived)},
      {"site.objs_received", "count", count(t, kObjsReceived)},
      {"daemon.pump_out_us", "us/op", per_op("daemon.pump_out")},
      {"daemon.pump_in_us", "us/op", per_op("daemon.pump_in")},
      {"daemon.local_deliveries", "count", count(t, kLocalDeliveries)},
      {"net.packets", "count", count(u, kPackets)},
      {"net.bytes_per_op", "B/op", count(u, kBytes) / opj},
      {"tcp.frames_per_writev", "frames/call",
       ratio(count(u, kWritevFrames), count(u, kWritevCalls))},
      {"tcp.writev_calls", "count", count(u, kWritevCalls)},
      {"tcp.pool_hit_ratio", "ratio",
       ratio(count(u, kPoolHits), acquires)},
      {"tcp.pool_acquires", "count", acquires},
      {"tcp.backpressure_waits", "count", count(u, kBackpressureWaits)},
      {"gc.collect_us", "us/pass", median(collect_per_pass)},
      {"gc.collect_passes", "count",
       static_cast<double>(tl.spans.collect_passes)},
      {"gc.exports_live_at_quiescence", "count",
       static_cast<double>(tl.exports_live)},
      {"gc.channels_freed", "count", count(t, kChannelsFreed)},
      {"ns.lookups", "count", count(t, kNsLookups)},
      {"ns.replies", "count", count(t, kNsReplies)},
      {"driver.residual_us", "us", median(untraced_wall) - median(traced_wall)},
      {"trace.unattributed_us", "us", median(unattributed)},
      {"trace.wall_us", "us", median(traced_wall)},
  };

  std::printf("\n-- reconciliation (medians per job, us; %zu traced jobs) --\n",
              tr.traced.size());
  double span_sum = 0;
  tl.spans.each([&](const char* n, double) {
    span_sum += median(span_us[n]);
    std::printf("%-34s %16.2f\n", n, median(span_us[n]));
  });
  std::printf("%-34s %16.2f\n%-34s %16.2f\n%-34s %16.2f\n%-34s %16.2f\n",
              "sum of span medians", span_sum, "traced wall",
              median(traced_wall), "untraced threaded wall",
              median(untraced_wall), "residual (untraced - traced)",
              median(untraced_wall) - median(traced_wall));

  // Drift: least-squares growth of each span over the job index.
  std::printf("\n-- growth per 1000 jobs of an instance (us per job) --\n");
  std::string top = "none";
  double top_growth = 0;
  tl.spans.each([&](const char* n, double) {
    const double g = slope(index, span_us[n]) * 1000.0;
    std::printf("%-34s %16.2f\n", n, g);
    if (g > top_growth) {
      top_growth = g;
      top = n;
    }
  });
  const double wall_growth = slope(index, traced_wall) * 1000.0;
  std::printf("%-34s %16.2f (largest span: %s)\n", "traced job wall",
              wall_growth, top.c_str());
  out.push_back({"trace.growth_us_per_1k_jobs", "us", wall_growth});
  out.push_back({"gc.collect_growth_us_per_1k_jobs", "us",
                 slope(index, span_us["gc.collect"]) * 1000.0});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    default_size(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  pin_two_cpus();
  const Workload w(args.workload, args.seed, default_size(args.workload));
  const auto sz = w.size();
  std::printf("workload %s seed %llu: %d loops x %d ops per job, %d job(s) "
              "per instance\n",
              w.name().c_str(), static_cast<unsigned long long>(args.seed),
              sz.loops, sz.per_loop, sz.jobs);
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    failures.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
  };

  // Untimed checks: the reducer oracle, and the exact counts of another
  // seed (a workload's shape must not depend on its constants).
  if (std::string why = reducer_check(w.name(), args.seed); !why.empty())
    fail("reducer oracle: " + why);
  ShapeGuard guard;
  {
    const Workload w2(w.name(), args.seed ^ 0xa5a5a5a5ull, sz);
    Instance inst(w2, core::Network::Mode::kThreaded, nullptr);
    for (int j = 0; j < std::min(sz.jobs, 2); ++j) {
      const JobResult r = inst.run_job(static_cast<std::uint64_t>(j), false);
      guard.check(r);
      if (!r.failure.empty()) fail("other-seed job: " + r.failure);
    }
  }
  // Warm-up set-ups (untimed): caches and lazy state filled.
  for (int i = 0; i < 20; ++i)
    Instance(w, core::Network::Mode::kThreaded, nullptr);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase ph = run_phase(w, untraced_s, false, guard);
  const Phase tr = args.trace
                       ? run_phase(w, args.seconds - untraced_s, true, guard)
                       : Phase{};

  // Every op of a failed job counts as failed; the first failure is named.
  std::uint64_t attempted = 0, failed = 0;
  for (const Phase* p : {&ph, &tr}) {
    attempted += p->wall_us.size() * w.ops_per_job();
    failed += p->failed_jobs * w.ops_per_job();
    if (!p->first_failure.empty()) fail(p->first_failure);
  }
  if (!guard.error.empty()) fail("exact counts: " + guard.error);

  if (w.name() == "ship_tcp") {
    const std::size_t code = applet_code_bytes(w);
    const double per_act =
        static_cast<double>(ph.last.counts[kBytes]) /
        static_cast<double>(w.ops_per_job());
    std::printf("applet guard: %zu code bytes (>= %d required), %.1f wire "
                "bytes per activation\n",
                code, 4 * w.applet_operators(), per_act);
    if (code < static_cast<std::size_t>(4 * w.applet_operators()))
      fail("applet guard: applet code folded to " + std::to_string(code) +
           " B");
    if (per_act <= static_cast<double>(code))
      fail("applet guard: wire bytes per activation do not exceed the "
           "applet's code size");
  }

  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<Metric> out = end_to_end(w, ph);
  print_metrics(out);
  std::printf("%-34s %16.6g (%llu of %llu ops)\n", "fail_ratio", fail_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (args.trace) {
    out = per_layer(w, ph, tr);
    out.push_back({"fail_ratio", "ratio", fail_ratio});
    std::printf("\n-- per-layer (traced sequential driver) --\n");
    print_metrics(out);
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
