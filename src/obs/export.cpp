#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/metrics.hpp"  // json_escape

namespace dityco::obs {

namespace {

std::string fmt_us(std::uint64_t ns, std::uint64_t base_ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(ns - base_ns) / 1000.0);
  return buf;
}

struct FlowPoint {
  std::uint64_t ts_ns;
  std::uint32_t pid, tid;
  const char* name;
};

}  // namespace

std::string thread_name(std::uint32_t node, std::uint32_t site,
                        const std::string& site_name) {
  const std::string n = "node" + std::to_string(node);
  if (site == kDaemonSite) return n + "/tycod";
  if (site == kTcpSite) return n + "/tcp";
  if (!site_name.empty()) return site_name;
  return n + "/site" + std::to_string(site);
}

std::string chrome_trace_json(const std::vector<ThreadTrace>& traces) {
  return chrome_trace_json(traces, ExportMeta{});
}

std::string chrome_trace_json(const std::vector<ThreadTrace>& traces,
                              const ExportMeta& meta) {
  // Normalise timestamps so the timeline starts near zero.
  std::uint64_t base = UINT64_MAX;
  for (const auto& t : traces)
    for (const auto& e : t.events) base = std::min(base, e.ts_ns);
  if (base == UINT64_MAX) base = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out += ",\n";
    first = false;
    out += obj;
  };

  // Process/thread naming metadata.
  std::map<std::uint32_t, bool> named_pids;
  for (const auto& t : traces) {
    if (!named_pids[t.pid]) {
      named_pids[t.pid] = true;
      emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(t.pid) + ",\"args\":{\"name\":\"node " +
           std::to_string(t.pid) + "\"}}");
    }
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
         std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
         ",\"args\":{\"name\":\"" + json_escape(t.name) + "\"}}");
  }

  // Flow chains: every event carrying the same non-zero trace id, in
  // timestamp order, becomes start -> step* -> finish.
  std::map<std::uint64_t, std::vector<FlowPoint>> flows;

  for (const auto& t : traces) {
    const std::string pidtid = "\"pid\":" + std::to_string(t.pid) +
                               ",\"tid\":" + std::to_string(t.tid);
    for (const auto& e : t.events) {
      const std::string ts = fmt_us(e.ts_ns, base);
      switch (e.type) {
        case EventType::kSliceBegin:
          emit("{\"ph\":\"B\",\"name\":\"run-slice\",\"cat\":\"vm\"," +
               pidtid + ",\"ts\":" + ts + "}");
          break;
        case EventType::kSliceEnd:
          emit("{\"ph\":\"E\"," + pidtid + ",\"ts\":" + ts +
               ",\"args\":{\"instructions\":" + std::to_string(e.arg) + "}}");
          break;
        default: {
          // A traced FETCH round trip renders as an async span on the
          // requesting site — "b" at the request, "e" at the reply,
          // matched by (cat, id) — so its latency is a visible bar
          // rather than two instants. kFetchServed (the remote side)
          // stays an instant inside the span.
          const bool span = e.trace_id != 0 &&
                            (e.type == EventType::kFetchReq ||
                             e.type == EventType::kFetchReply);
          std::string obj;
          if (span) {
            obj = "{\"ph\":\"";
            obj += e.type == EventType::kFetchReq ? "b" : "e";
            obj += "\",\"name\":\"FETCH\",\"cat\":\"fetch\",\"id\":" +
                   std::to_string(e.trace_id) + "," + pidtid +
                   ",\"ts\":" + ts + ",\"args\":{\"arg\":" +
                   std::to_string(e.arg) + "}}";
          } else {
            obj = "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"";
            obj += event_name(e.type);
            obj += "\",\"cat\":\"mobility\"," + pidtid + ",\"ts\":" + ts +
                   ",\"args\":{\"arg\":" + std::to_string(e.arg) +
                   ",\"trace_id\":" + std::to_string(e.trace_id) + "}}";
          }
          emit(obj);
          if (e.trace_id != 0)
            flows[e.trace_id].push_back(
                FlowPoint{e.ts_ns, t.pid, t.tid, event_name(e.type)});
          break;
        }
      }
    }
  }

  for (auto& [id, points] : flows) {
    if (points.size() < 2) continue;  // nothing to connect
    std::stable_sort(points.begin(), points.end(),
                     [](const FlowPoint& a, const FlowPoint& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    for (std::size_t i = 0; i < points.size(); ++i) {
      const FlowPoint& p = points[i];
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      std::string obj = "{\"ph\":\"";
      obj += ph;
      obj += "\",\"name\":\"flow\",\"cat\":\"mobility\",\"id\":" +
             std::to_string(id) + ",\"pid\":" + std::to_string(p.pid) +
             ",\"tid\":" + std::to_string(p.tid) +
             ",\"ts\":" + fmt_us(p.ts_ns, base);
      if (ph[0] == 'f') obj += ",\"bp\":\"e\"";
      obj += "}";
      emit(obj);
    }
  }

  out += "],\"displayTimeUnit\":\"ms\"";
  if (meta.has_anchor) {
    // ts values are (event_ts_ns - ts_base_ns)/1000; with the anchor a
    // reader recovers wall time (see ExportMeta in export.hpp).
    out += ",\"otherData\":{\"node\":" + std::to_string(meta.node) +
           ",\"ts_base_ns\":" + std::to_string(base) +
           ",\"steady_now_ns\":" + std::to_string(meta.steady_now_ns) +
           ",\"wall_now_us\":" + std::to_string(meta.wall_now_us) + "}";
  }
  out += "}";
  return out;
}

}  // namespace dityco::obs
