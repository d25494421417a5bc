#include "obs/fleet.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <tuple>

#include "obs/export.hpp"
#include "obs/metrics.hpp"  // json_escape

namespace dityco::obs::fleet {

// -- tiny JSON reader ---------------------------------------------------

double Json::num() const { return std::strtod(raw.c_str(), nullptr); }

std::uint64_t Json::u64() const {
  return std::strtoull(raw.c_str(), nullptr, 10);
}

const Json* Json::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

double Json::num_or(const std::string& key, double def) const {
  const Json* v = find(key);
  return v && v->kind == Kind::kNumber ? v->num() : def;
}

std::uint64_t Json::u64_or(const std::string& key, std::uint64_t def) const {
  const Json* v = find(key);
  return v && v->kind == Kind::kNumber ? v->u64() : def;
}

std::string Json::str_or(const std::string& key,
                         const std::string& def) const {
  const Json* v = find(key);
  return v && v->kind == Kind::kString ? v->raw : def;
}

namespace {

struct Parser {
  const char* p;
  const char* end;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }

  bool literal(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, s, n) != 0)
      return false;
    p += n;
    return true;
  }

  bool string(std::string& out) {
    if (p >= end || *p != '"') return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (p + 1 >= end) return false;
        ++p;
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Pass \uXXXX through literally: nothing we scrape emits
            // unicode escapes for content we interpret.
            if (end - p < 5) return false;
            out += "\\u";
            out.append(p + 1, 4);
            p += 4;
            break;
          }
          default: return false;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }

  bool value(Json& out) {
    if (++depth > 64) return false;  // stack guard for hostile input
    skip_ws();
    if (p >= end) return false;
    bool ok = false;
    if (*p == '{') {
      ++p;
      out.kind = Json::Kind::kObject;
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        ok = true;
      } else {
        for (;;) {
          std::string key;
          skip_ws();
          if (!string(key)) break;
          skip_ws();
          if (p >= end || *p != ':') break;
          ++p;
          Json v;
          if (!value(v)) break;
          out.fields.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            ok = true;
          }
          break;
        }
      }
    } else if (*p == '[') {
      ++p;
      out.kind = Json::Kind::kArray;
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        ok = true;
      } else {
        for (;;) {
          Json v;
          if (!value(v)) break;
          out.items.push_back(std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            ok = true;
          }
          break;
        }
      }
    } else if (*p == '"') {
      out.kind = Json::Kind::kString;
      ok = string(out.raw);
    } else if (literal("true")) {
      out.kind = Json::Kind::kBool;
      out.boolean = true;
      ok = true;
    } else if (literal("false")) {
      out.kind = Json::Kind::kBool;
      out.boolean = false;
      ok = true;
    } else if (literal("null")) {
      out.kind = Json::Kind::kNull;
      ok = true;
    } else {
      const char* start = p;
      if (p < end && (*p == '-' || *p == '+')) ++p;
      while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                         *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                         *p == '+'))
        ++p;
      if (p > start) {
        out.kind = Json::Kind::kNumber;
        out.raw.assign(start, p);
        ok = true;
      }
    }
    --depth;
    return ok;
  }
};

}  // namespace

bool parse_json(const std::string& text, Json& out) {
  Parser ps{text.data(), text.data() + text.size()};
  if (!ps.value(out)) return false;
  ps.skip_ws();
  return ps.p == ps.end;
}

// -- HTTP ---------------------------------------------------------------

bool parse_url(const std::string& url, std::string& host,
               std::uint16_t& port) {
  std::string rest = url;
  const std::string scheme = "http://";
  if (rest.rfind(scheme, 0) == 0) rest = rest.substr(scheme.size());
  const auto slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size())
    return false;
  host = rest.substr(0, colon);
  char* endp = nullptr;
  const long v = std::strtol(rest.c_str() + colon + 1, &endp, 10);
  if (endp == nullptr || *endp != '\0' || v <= 0 || v > 65535) return false;
  port = static_cast<std::uint16_t>(v);
  return true;
}

std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return "";
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path +
                          " HTTP/1.0\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string resp;
  char buf[16384];
  for (;;) {
    pollfd pf{fd, POLLIN, 0};
    const int rc = ::poll(&pf, 1, timeout_ms);
    if (rc <= 0) break;  // timeout or error: return what we have
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (resp.compare(0, 5, "HTTP/") != 0) return "";
  // Require a 2xx status.
  const auto sp = resp.find(' ');
  if (sp == std::string::npos || sp + 1 >= resp.size() ||
      resp[sp + 1] != '2')
    return "";
  const auto hdr_end = resp.find("\r\n\r\n");
  return hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
}

// -- discovery ------------------------------------------------------------

namespace {

std::string host_of(const std::string& hostport, const std::string& fallback) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0) return fallback;
  return hostport.substr(0, colon);
}

}  // namespace

std::vector<NodeEndpoint> discover(const std::string& seed_url,
                                   std::vector<std::uint32_t>* unmonitored) {
  std::vector<NodeEndpoint> out;
  std::string host;
  std::uint16_t port = 0;
  if (!parse_url(seed_url, host, port)) return out;

  // (host, monitor-port) pairs queued for a /peers probe.
  std::vector<std::pair<std::string, std::uint16_t>> todo{{host, port}};
  std::set<std::pair<std::string, std::uint16_t>> seen{{host, port}};
  std::set<std::uint32_t> known_nodes;
  std::set<std::uint32_t> no_monitor;

  while (!todo.empty()) {
    const auto [h, p] = todo.back();
    todo.pop_back();
    const std::string body = http_get(h, p, "/peers");
    if (body.empty()) continue;
    Json doc;
    if (!parse_json(body, doc)) continue;

    if (const Json* self = doc.find("self")) {
      const auto node = static_cast<std::uint32_t>(self->u64_or("node", 0));
      if (known_nodes.insert(node).second) {
        NodeEndpoint ep;
        ep.node = node;
        ep.host = h;
        ep.monitor = p;
        ep.hostport = self->str_or("hostport");
        out.push_back(std::move(ep));
      }
    }
    const Json* peers = doc.find("peers");
    if (!peers || peers->kind != Json::Kind::kArray) continue;
    for (const Json& peer : peers->items) {
      const auto mport =
          static_cast<std::uint16_t>(peer.u64_or("monitor", 0));
      if (mport == 0) {
        // Monitor-less peer (or its port has not gossiped yet): part of
        // the fleet, just not scrapeable — record, don't fail.
        no_monitor.insert(static_cast<std::uint32_t>(peer.u64_or("node", 0)));
        continue;
      }
      // The peer's monitor listens where its transport does; fall back
      // to the probed host for peers whose address is not yet gossiped.
      const std::string mhost = host_of(peer.str_or("hostport"), h);
      if (seen.insert({mhost, mport}).second) todo.push_back({mhost, mport});
    }
  }
  if (unmonitored != nullptr) {
    unmonitored->clear();
    for (std::uint32_t n : no_monitor)
      if (!known_nodes.count(n)) unmonitored->push_back(n);
  }
  return out;
}

// -- stitching ------------------------------------------------------------

namespace {

// Bound on every microsecond value read from a document (anchor wall
// time and event ts, about 127 years): in ns their sum still fits a
// uint64.
constexpr std::uint64_t kMaxUs = 4'000'000'000'000'000;

// Fill in the type, trace id, arg and ts (ns, on the document's axis)
// of the TraceEvent a chrome_trace_json object renders: its inverse.
// B/E are the run-slice pair, b/e a traced FETCH's request and reply,
// i any other type by name. False for metadata, flow arrows and
// anything no EventType renders as.
bool to_event(const Json& e, TraceEvent& out) {
  const std::string ph = e.str_or("ph");
  const Json* args = e.find("args");
  auto arg = [args](const char* key) {
    return args ? args->u64_or(key, 0) : 0;
  };
  if (ph == "B") {
    out.type = EventType::kSliceBegin;
  } else if (ph == "E") {
    out.type = EventType::kSliceEnd;
    out.arg = arg("instructions");
  } else if (ph == "b" || ph == "e") {
    out.type = ph == "b" ? EventType::kFetchReq : EventType::kFetchReply;
    out.trace_id = e.u64_or("id", 0);
    out.arg = arg("arg");
  } else if (ph == "i") {
    const auto t = event_type_named(e.str_or("name"));
    if (!t) return false;
    out.type = *t;
    out.trace_id = arg("trace_id");
    out.arg = arg("arg");
  } else {
    return false;
  }
  // The writer prints µs with three decimals: whole ns, exactly.
  const double us = e.num_or("ts", -1);
  if (!(us >= 0 && us < static_cast<double>(kMaxUs))) return false;
  out.ts_ns = static_cast<std::uint64_t>(std::llround(us * 1000.0));
  return true;
}

}  // namespace

MergedTrace merge_traces(const std::vector<std::string>& docs) {
  MergedTrace merged;
  // One line per (pid, tid), in order of first appearance, so a single
  // document comes back out line for line.
  std::vector<ThreadTrace> lines;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> index;
  auto line = [&](std::uint32_t pid, std::uint32_t tid) -> ThreadTrace& {
    const auto [it, fresh] = index.try_emplace({pid, tid}, lines.size());
    if (fresh) lines.push_back({thread_name(pid, tid), pid, tid, {}});
    return lines[it->second];
  };

  for (const std::string& text : docs) {
    Json doc;
    if (!parse_json(text, doc)) continue;
    const Json* events = doc.find("traceEvents");
    if (!events || events->kind != Json::Kind::kArray) continue;
    ++merged.nodes;

    // Clock anchor: the wall time of local ts 0 (see the file header of
    // fleet.hpp). Unanchored documents keep their local base.
    std::uint64_t offset_ns = 0;
    if (const Json* other = doc.find("otherData")) {
      const std::uint64_t steady = other->u64_or("steady_now_ns", 0);
      const std::uint64_t base = other->u64_or("ts_base_ns", 0);
      const std::uint64_t wall = other->u64_or("wall_now_us", 0);
      if (steady != 0 && wall != 0 && wall < kMaxUs && steady >= base &&
          steady - base <= wall * 1000) {
        offset_ns = wall * 1000 - (steady - base);
        ++merged.anchored;
      }
    }

    for (const Json& e : events->items) {
      const std::uint64_t pid = e.u64_or("pid", 0), tid = e.u64_or("tid", 0);
      if (pid > UINT32_MAX || tid > UINT32_MAX) continue;
      TraceEvent ev;
      ev.node = static_cast<std::uint32_t>(pid);
      ev.site = static_cast<std::uint32_t>(tid);
      if (e.str_or("ph") == "M") {
        // The writer names every pid "node <pid>" itself; thread names
        // come from the document.
        const Json* args = e.find("args");
        const std::string name = args ? args->str_or("name") : "";
        if (e.str_or("name") == "thread_name" && !name.empty())
          line(ev.node, ev.site).name = name;
        continue;
      }
      if (!to_event(e, ev)) continue;
      ev.ts_ns += offset_ns;
      line(ev.node, ev.site).events.push_back(ev);
      merged.events.push_back(ev);
    }
  }
  merged.json = chrome_trace_json(lines);
  return merged;
}

std::string federate_metrics(
    const std::vector<std::pair<std::uint32_t, std::string>>& texts) {
  std::string out;
  for (const auto& [node, body] : texts) {
    const std::string label = "node=\"" + std::to_string(node) + "\"";
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) nl = body.size();
      std::string line = body.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty() || line[0] == '#') {
        out += line;
        out += '\n';
        continue;
      }
      const auto brace = line.find('{');
      const auto space = line.find(' ');
      if (brace != std::string::npos &&
          (space == std::string::npos || brace < space)) {
        line.insert(brace + 1, label + ",");
      } else if (space != std::string::npos) {
        line.insert(space, "{" + label + "}");
      }
      out += line;
      out += '\n';
    }
  }
  return out;
}

// -- credit audit ---------------------------------------------------------

namespace {

// Owner identity of one export-table entry across the fleet.
using OwnerKey = std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>;
// Releaser identity: the (node, site) a cumulative REL ledger belongs to.
using Releaser = std::pair<std::uint32_t, std::uint32_t>;

// The name service RELs under this pseudo-site id (core/nameservice.cpp).
constexpr std::uint32_t kNsReleaserSite = 0xfffffffeu;

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

std::string key_str(const OwnerKey& k) {
  return std::string(std::get<2>(k) == 1 ? "class " : "chan ") +
         std::to_string(std::get<0>(k)) + "/" + std::to_string(std::get<1>(k)) +
         "#" + std::to_string(std::get<3>(k));
}

}  // namespace

AuditReport audit(const std::vector<Json>& gc_docs,
                  const std::vector<Json>& names_docs,
                  const std::vector<std::uint32_t>& expected_nodes) {
  AuditReport rep;

  struct Entry {
    std::uint64_t minted = 0, returned = 0, released = 0, outstanding = 0;
    std::uint64_t pins = 0, trace = 0;
    double age_ms = 0;
    std::map<Releaser, std::uint64_t> applied;  // owner-side REL slots
    std::vector<std::uint32_t> debt_nodes;      // advisory holder set
    std::uint64_t held = 0, lag = 0;
    std::string ns_name;
  };
  std::map<OwnerKey, Entry> entries;
  // Releaser-side declared cumulative REL ledgers (max-merged: the wire
  // protocol is idempotent under the same rule).
  std::map<std::pair<OwnerKey, Releaser>, std::uint64_t> declared;
  struct Import {
    OwnerKey key;
    std::uint32_t at_node = 0;
    std::string at_site;
    std::uint64_t credit = 0;
  };
  std::vector<Import> imports;

  std::set<std::uint32_t> scraped;      // nodes with >= 1 fresh site doc
  std::set<std::uint32_t> stale_nodes;  // nodes with a stale site doc
  // A node mid-run or with frames in its transport may have credit in
  // flight: the scrape is then not settled, and a positive residual
  // cannot be confirmed as a leak.
  bool settled = true;

  auto owner_key = [](const Json& o) {
    return OwnerKey{static_cast<std::uint32_t>(o.u64_or("owner_node", 0)),
                    static_cast<std::uint32_t>(o.u64_or("owner_site", 0)),
                    static_cast<int>(o.u64_or("kind", 0)),
                    o.u64_or("id", 0)};
  };

  for (const Json& doc : gc_docs) {
    const Json* sites = doc.find("sites");
    if (!sites || sites->kind != Json::Kind::kArray) continue;
    ++rep.nodes;
    if (const Json* run = doc.find("running");
        (run && run->kind == Json::Kind::kBool && run->boolean) ||
        doc.u64_or("in_flight", 0) > 0)
      settled = false;
    for (const Json& s : sites->items) {
      const auto node = static_cast<std::uint32_t>(s.u64_or("node", 0));
      const auto site = static_cast<std::uint32_t>(s.u64_or("site", 0));
      if (const Json* st = s.find("stale");
          st && st->kind == Json::Kind::kBool && st->boolean) {
        stale_nodes.insert(node);
        rep.gaps.push_back("node " + std::to_string(node) + " site \"" +
                           s.str_or("name") + "\": stale snapshot");
        continue;
      }
      scraped.insert(node);
      ++rep.sites;
      if (const Json* exp = s.find("exports");
          exp && exp->kind == Json::Kind::kArray) {
        for (const Json& e : exp->items) {
          const OwnerKey key{node, site,
                             static_cast<int>(e.u64_or("kind", 0)),
                             e.u64_or("id", 0)};
          Entry& en = entries[key];
          en.minted = e.u64_or("minted", 0);
          en.returned = e.u64_or("returned", 0);
          en.released = e.u64_or("released", 0);
          en.outstanding = e.u64_or("outstanding", 0);
          en.pins = e.u64_or("pins", 0);
          en.trace = e.u64_or("trace", 0);
          en.age_ms = e.num_or("age_ms", 0);
          if (const Json* rel = e.find("releasers");
              rel && rel->kind == Json::Kind::kArray)
            for (const Json& r : rel->items)
              if (r.kind == Json::Kind::kArray && r.items.size() == 3)
                en.applied[{static_cast<std::uint32_t>(r.items[0].u64()),
                            static_cast<std::uint32_t>(r.items[1].u64())}] =
                    r.items[2].u64();
          if (const Json* d = e.find("debt");
              d && d->kind == Json::Kind::kArray)
            for (const Json& r : d->items)
              if (r.kind == Json::Kind::kArray && r.items.size() == 2)
                en.debt_nodes.push_back(
                    static_cast<std::uint32_t>(r.items[0].u64()));
        }
      }
      if (const Json* imp = s.find("imports");
          imp && imp->kind == Json::Kind::kArray) {
        for (const Json& i : imp->items) {
          Import im;
          im.key = owner_key(i);
          im.at_node = node;
          im.at_site = s.str_or("name");
          im.credit = i.u64_or("credit", 0);
          imports.push_back(std::move(im));
        }
      }
      if (const Json* rel = s.find("releases");
          rel && rel->kind == Json::Kind::kArray) {
        for (const Json& r : rel->items) {
          auto& cum = declared[{owner_key(r), Releaser{node, site}}];
          cum = std::max(cum, r.u64_or("cum", 0));
        }
      }
    }
  }

  // Name-service half: credit the service still holds joins `held`; its
  // REL ledger joins the declared set under the NS pseudo-releaser.
  bool ns_complete = true;
  struct NsHold {
    OwnerKey key;
    std::string label;
    std::uint64_t credit = 0;
  };
  std::vector<NsHold> ns_holds;
  for (const Json& doc : names_docs) {
    const Json* svcs = doc.find("services");
    if (!svcs || svcs->kind != Json::Kind::kArray) continue;
    for (const Json& svc : svcs->items) {
      const auto home =
          static_cast<std::uint32_t>(svc.u64_or("home_node", 0));
      if (const Json* st = svc.find("stale");
          st && st->kind == Json::Kind::kBool && st->boolean) {
        ns_complete = false;
        rep.gaps.push_back("name service @ node " + std::to_string(home) +
                           ": stale snapshot");
        continue;
      }
      if (const Json* ids = svc.find("ids");
          ids && ids->kind == Json::Kind::kArray) {
        for (const Json& row : ids->items) {
          const Json* gc = row.find("gc");
          if (!gc || gc->kind != Json::Kind::kBool || !gc->boolean) continue;
          NsHold h;
          h.key = owner_key(row);
          h.label = row.str_or("site") + "/" + row.str_or("name");
          h.credit = row.u64_or("credit", 0);
          if (auto it = entries.find(h.key); it != entries.end())
            it->second.ns_name = h.label;
          ns_holds.push_back(std::move(h));
        }
      }
      if (const Json* rel = svc.find("releases");
          rel && rel->kind == Json::Kind::kArray) {
        for (const Json& r : rel->items) {
          auto& cum =
              declared[{owner_key(r), Releaser{home, kNsReleaserSite}}];
          cum = std::max(cum, r.u64_or("cum", 0));
        }
      }
    }
  }
  if (names_docs.empty()) ns_complete = false;

  // Completeness of the scrape: every expected node present and fresh.
  bool fleet_complete = stale_nodes.empty();
  for (std::uint32_t n : expected_nodes)
    if (!scraped.count(n)) {
      fleet_complete = false;
      rep.gaps.push_back("node " + std::to_string(n) +
                         ": expected but not scraped");
    }

  // Join the holder sides into the owner entries.
  for (const Import& im : imports) {
    auto it = entries.find(im.key);
    if (it != entries.end()) {
      it->second.held += im.credit;
    } else if (im.credit > 0 && scraped.count(std::get<0>(im.key))) {
      // The owner was scraped and has no such entry: an entry reclaimed
      // while credit for it was still out, or a corrupted ledger.
      rep.orphan_imports.push_back(
          im.at_site + "@node" + std::to_string(im.at_node) + " holds " +
          std::to_string(im.credit) + " credit for missing " +
          key_str(im.key));
    }
  }
  for (const NsHold& h : ns_holds) {
    auto it = entries.find(h.key);
    if (it != entries.end()) {
      it->second.held += h.credit;
    } else if (h.credit > 0 && scraped.count(std::get<0>(h.key))) {
      rep.ns_mismatches.push_back("name service holds " +
                                  std::to_string(h.credit) + " credit for \"" +
                                  h.label + "\" but owner " + key_str(h.key) +
                                  " has no entry");
    }
  }
  for (const auto& [joined, cum] : declared) {
    auto it = entries.find(joined.first);
    if (it == entries.end()) continue;  // reclaimed: ledger outlives entry
    const auto slot = it->second.applied.find(joined.second);
    const std::uint64_t applied =
        slot == it->second.applied.end() ? 0 : slot->second;
    if (cum > applied) it->second.lag += cum - applied;
  }

  // Verdicts.
  for (auto& [key, en] : entries) {
    ++rep.entries;
    rep.outstanding += en.outstanding;
    rep.held += en.held;
    rep.lag += en.lag;
    bool entry_verifiable =
        settled && fleet_complete && (en.pins == 0 || ns_complete);
    for (std::uint32_t dn : en.debt_nodes)
      if (!scraped.count(dn)) entry_verifiable = false;
    const std::int64_t residual = static_cast<std::int64_t>(en.outstanding) -
                                  static_cast<std::int64_t>(en.held) -
                                  static_cast<std::int64_t>(en.lag);
    const char* why = nullptr;
    if (en.lag > 0)
      why = "rel_lost";
    else if (residual < 0)
      why = "over_release";
    else if (residual > 0 && entry_verifiable)
      why = "leak";
    else if (residual > 0)
      rep.verifiable = false;  // positive residual we cannot confirm
    if (why == nullptr) continue;
    AuditOffender off;
    off.owner_node = std::get<0>(key);
    off.owner_site = std::get<1>(key);
    off.kind = std::get<2>(key);
    off.heap_id = std::get<3>(key);
    off.ns_name = en.ns_name;
    off.minted = en.minted;
    off.outstanding = en.outstanding;
    off.held = en.held;
    off.lag = en.lag;
    off.residual = residual;
    off.age_ms = en.age_ms;
    off.trace = en.trace;
    off.why = why;
    rep.offenders.push_back(std::move(off));
  }
  std::stable_sort(rep.offenders.begin(), rep.offenders.end(),
                   [](const AuditOffender& a, const AuditOffender& b) {
                     const auto sev = [](const AuditOffender& o) {
                       return o.lag + static_cast<std::uint64_t>(
                                          o.residual < 0 ? -o.residual
                                                         : o.residual);
                     };
                     return sev(a) > sev(b);
                   });
  if (!rep.gaps.empty()) rep.verifiable = false;
  rep.balanced = rep.offenders.empty() && rep.orphan_imports.empty() &&
                 rep.ns_mismatches.empty();
  return rep;
}

namespace {

std::string str_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(v[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

std::string AuditReport::to_json() const {
  std::string out = "{\"balanced\":";
  out += balanced ? "true" : "false";
  out += ",\"verifiable\":";
  out += verifiable ? "true" : "false";
  out += ",\"nodes\":" + std::to_string(nodes);
  out += ",\"sites\":" + std::to_string(sites);
  out += ",\"entries\":" + std::to_string(entries);
  out += ",\"outstanding\":" + std::to_string(outstanding);
  out += ",\"held\":" + std::to_string(held);
  out += ",\"lag\":" + std::to_string(lag);
  out += ",\"offenders\":[";
  for (std::size_t i = 0; i < offenders.size(); ++i) {
    const AuditOffender& o = offenders[i];
    if (i) out += ",";
    out += "{\"why\":\"" + o.why + "\"";
    out += ",\"owner_node\":" + std::to_string(o.owner_node);
    out += ",\"owner_site\":" + std::to_string(o.owner_site);
    out += ",\"kind\":" + std::to_string(o.kind);
    out += ",\"id\":" + std::to_string(o.heap_id);
    if (!o.ns_name.empty())
      out += ",\"name\":\"" + json_escape(o.ns_name) + "\"";
    out += ",\"minted\":" + std::to_string(o.minted);
    out += ",\"outstanding\":" + std::to_string(o.outstanding);
    out += ",\"held\":" + std::to_string(o.held);
    out += ",\"lag\":" + std::to_string(o.lag);
    out += ",\"residual\":" + std::to_string(o.residual);
    out += ",\"age_ms\":" + fmt_ms(o.age_ms);
    out += ",\"trace\":" + std::to_string(o.trace);
    out += "}";
  }
  out += "],\"orphan_imports\":" + str_array(orphan_imports);
  out += ",\"ns_mismatches\":" + str_array(ns_mismatches);
  out += ",\"gaps\":" + str_array(gaps);
  out += "}";
  return out;
}

std::string AuditReport::to_text() const {
  std::string out = "credit audit: ";
  out += balanced ? "BALANCED" : "IMBALANCED";
  if (!verifiable) out += " (unverifiable)";
  out += " — " + std::to_string(entries) + " entries, " +
         std::to_string(sites) + " sites, " + std::to_string(nodes) +
         " nodes\n";
  out += "  outstanding " + std::to_string(outstanding) + " = held " +
         std::to_string(held) + " + lag " + std::to_string(lag) +
         " + residual " +
         std::to_string(static_cast<std::int64_t>(outstanding) -
                        static_cast<std::int64_t>(held) -
                        static_cast<std::int64_t>(lag)) +
         "\n";
  for (const AuditOffender& o : offenders) {
    out += "  [" + o.why + "] " +
           key_str({o.owner_node, o.owner_site, o.kind, o.heap_id});
    if (!o.ns_name.empty()) out += " (\"" + o.ns_name + "\")";
    out += " minted=" + std::to_string(o.minted) +
           " outstanding=" + std::to_string(o.outstanding) +
           " held=" + std::to_string(o.held) +
           " lag=" + std::to_string(o.lag) +
           " residual=" + std::to_string(o.residual) + " age=" +
           fmt_ms(o.age_ms) + "ms trace=" + std::to_string(o.trace) + "\n";
  }
  for (const std::string& s : orphan_imports)
    out += "  [orphan_import] " + s + "\n";
  for (const std::string& s : ns_mismatches)
    out += "  [ns_mismatch] " + s + "\n";
  for (const std::string& s : gaps) out += "  [gap] " + s + "\n";
  return out;
}

std::string federate_metrics_json(
    const std::vector<std::pair<std::uint32_t, std::string>>& docs) {
  std::string out = "{\"nodes\":[";
  bool first = true;
  for (const auto& [node, body] : docs) {
    if (!first) out += ",";
    first = false;
    out += "{\"node\":" + std::to_string(node) + ",\"metrics\":";
    out += body.empty() ? "null" : body;
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace dityco::obs::fleet
