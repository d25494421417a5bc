// Chrome trace-event / Perfetto export (observability layer, part 3 of 3).
//
// Merges per-site and per-node TraceRing snapshots into one JSON timeline
// in the Chrome trace-event format (load it in chrome://tracing or
// https://ui.perfetto.dev). This is the only trace writer: /trace,
// /flight and the stitched fleet timeline (obs/fleet.hpp, which maps
// each node's document back to TraceEvents) all render through it.
// Mapping:
//
//   * pid  = node id (one "process" per cluster node),
//   * tid  = a thread line per site, plus one for the node daemon
//     (kDaemonSite) and one for its TCP transport (kTcpSite), named by
//     thread_name(),
//   * run-slices  -> "B"/"E" duration events,
//   * everything else -> "i" instant events,
//   * events sharing a non-zero trace id -> an "s"/"t"/"f" flow chain,
//     which Perfetto draws as arrows following a SHIPM/SHIPO/FETCH/NS
//     operation across sites.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace dityco::obs {

/// One thread line of the merged timeline.
struct ThreadTrace {
  std::string name;        // thread_name(pid, tid, ...)
  std::uint32_t pid = 0;   // node id
  std::uint32_t tid = 0;   // line within the node
  std::vector<TraceEvent> events;
};

/// The name of (node, site)'s thread line: "node<N>/tycod" for the
/// daemon, "node<N>/tcp" for the TCP transport, otherwise `site_name`
/// ("node<N>/site<S>" when the site's name is unknown).
std::string thread_name(std::uint32_t node, std::uint32_t site,
                        const std::string& site_name = "");

/// Clock anchor for cross-process stitching. Trace timestamps are
/// steady_clock, which is meaningless across OS processes; the anchor
/// pairs "steady now" with "wall now" *at export time*, letting an
/// aggregator (obs/fleet.hpp, tools/tycotop) rebase every node's events
/// onto the shared wall clock:
///   wall_us(event) = wall_now_us - (steady_now_ns - event_ts_ns)/1000.
/// Exported as "otherData" next to ts_base_ns (the subtracted base), so
/// a document alone still carries everything needed for the rebase.
struct ExportMeta {
  bool has_anchor = false;
  std::uint32_t node = 0;          // this process's node id
  std::uint64_t steady_now_ns = 0; // trace_now_ns() at export
  std::uint64_t wall_now_us = 0;   // system_clock at the same instant
};

/// Render the merged timeline as a Chrome trace-event JSON document.
std::string chrome_trace_json(const std::vector<ThreadTrace>& traces);
/// Same, with a clock anchor in "otherData" for fleet-level stitching.
std::string chrome_trace_json(const std::vector<ThreadTrace>& traces,
                              const ExportMeta& meta);

}  // namespace dityco::obs
