#include "core/nameservice.hpp"

#include <algorithm>

#include "core/wire.hpp"

namespace dityco::core {

namespace {
constexpr std::uint32_t kNsDstSite = 0xffffffffu;
// Releaser site id the name service uses in its RELs (it is not a site;
// the id only needs to be unique per releasing node).
constexpr std::uint32_t kNsReleaserSite = 0xfffffffeu;
}

void NameService::register_site(const std::string& name, std::uint32_t node,
                                std::uint32_t site) {
  sites_[name] = SiteInfo{node, site};
  ++mutations_;
}

std::optional<NameService::SiteInfo> NameService::lookup_site(
    const std::string& name) const {
  auto it = sites_.find(name);
  if (it == sites_.end()) return std::nullopt;
  return it->second;
}

void NameService::reply_to(const Waiter& w, Entry& e, bool ok,
                           std::vector<net::Packet>& replies) {
  // A credit-bearing binding hands half of its held balance to each
  // importer (share 0 once starved, from a weak binding or on a failed
  // reply: the importer gets a weak handle).
  const std::uint64_t share = ok ? e.credit / 2 : 0;
  if (share > 0) {
    e.credit -= share;
    ++mutations_;
  }
  Writer out;
  write_header(out, MsgType::kNsReply, w.site, w.trace_id, w.sampled);
  out.u64(w.token);
  out.boolean(ok);
  write_netref(out, e.ref);
  out.str(e.type_sig);
  out.u64(share);
  net::Packet p;
  p.src_node = home_node_;
  p.dst_node = w.node;
  p.bytes = out.take();
  replies.push_back(std::move(p));
  ++stats_.replies;
  if (lease_tracking_ && ok &&
      std::find(e.lease_holders.begin(), e.lease_holders.end(), w.node) ==
          e.lease_holders.end())
    e.lease_holders.push_back(w.node);
  if (share > 0 && w.node != e.ref.node) {
    // CREDIT-MOVED: the owner minted this credit against the name
    // service (unattributed); tell it the share now lives at the
    // importer's node so a failure write-off there can forgive it.
    net::Packet cm;
    cm.src_node = home_node_;
    cm.dst_node = e.ref.node;
    cm.bytes = make_credit_moved(e.ref, w.node, share);
    replies.push_back(std::move(cm));
    ++stats_.credit_moves;
  }
}

void NameService::release_entry(const Entry& e, std::vector<net::Packet>& out) {
  if (e.credit == 0) return;
  std::uint64_t& cum = released_cum_[e.ref];
  cum += e.credit;
  ++mutations_;
  net::Packet p;
  p.src_node = home_node_;
  p.dst_node = e.ref.node;
  p.bytes = make_release(e.ref, home_node_, kNsReleaserSite, cum);
  out.push_back(std::move(p));
  ++stats_.releases;
}

void NameService::push_invalidations(const Key& key, Entry& e,
                                     std::vector<net::Packet>& out) {
  if (e.lease_holders.empty()) return;
  const auto bytes = make_ns_invalidate(key.first, key.second);
  for (const std::uint32_t holder : e.lease_holders) {
    net::Packet p;
    p.src_node = home_node_;
    p.dst_node = holder;
    p.bytes = bytes;
    out.push_back(std::move(p));
    ++stats_.invalidations;
  }
  e.lease_holders.clear();
}

void NameService::register_id(const std::string& site, const std::string& name,
                              const vm::NetRef& ref,
                              const std::string& type_sig,
                              std::vector<net::Packet>& replies,
                              std::uint64_t credit) {
  ++stats_.exports;
  const Key key{site, name};
  std::vector<std::uint32_t> holders;
  if (auto old = ids_.find(key); old != ids_.end()) {
    release_entry(old->second, replies);  // overwritten binding drains
    // A rebind to a *different* referent stales every outstanding
    // lease; re-registering the same referent (replication re-sends)
    // leaves caches valid, so their holders carry over.
    if (old->second.ref != ref)
      push_invalidations(key, old->second, replies);
    else
      holders = std::move(old->second.lease_holders);
  }
  ids_[key] = Entry{ref, type_sig, credit, credit > 0, std::move(holders)};
  ++mutations_;
  auto it = waiting_.find(key);
  if (it == waiting_.end()) return;
  for (const Waiter& w : it->second)
    reply_to(w, ids_[key], w.kind == ref.kind, replies);
  parked_now_.fetch_sub(static_cast<std::int64_t>(it->second.size()),
                        std::memory_order_relaxed);
  waiting_.erase(it);
}

void NameService::handle_export(Reader& r, std::vector<net::Packet>& replies,
                                bool keep_credit) {
  const std::string site = r.str();
  const std::string name = r.str();
  const vm::NetRef ref = read_netref(r);
  const std::string sig = r.str();
  const std::uint64_t credit = r.u64();
  // A follower's copy must not hold the credit: exactly one holder per
  // minted unit (the shard primary keeps it).
  register_id(site, name, ref, sig, replies, keep_credit ? credit : 0);
}

void NameService::handle_unregister(Reader& r,
                                    std::vector<net::Packet>& replies) {
  ++stats_.unregisters;
  const std::string site = r.str();
  const std::string name = r.str();
  auto it = ids_.find({site, name});
  if (it == ids_.end()) return;  // already dropped (duplicate unregister)
  release_entry(it->second, replies);
  push_invalidations({site, name}, it->second, replies);
  ids_.erase(it);
  ++mutations_;
}

void NameService::handle_lookup(Reader& r, std::vector<net::Packet>& replies,
                                std::uint64_t trace_id, bool sampled) {
  ++stats_.lookups;
  const std::string site = r.str();
  const std::string name = r.str();
  Waiter w;
  w.kind = static_cast<vm::NetRef::Kind>(r.u8());
  w.node = r.u32();
  w.site = r.u32();
  w.token = r.u64();
  w.trace_id = trace_id;
  w.sampled = sampled;
  const Key key{site, name};
  auto it = ids_.find(key);
  if (it != ids_.end()) {
    reply_to(w, it->second, w.kind == it->second.ref.kind, replies);
    return;
  }
  // Not exported yet: park until it is (blocking import).
  waiting_[key].push_back(w);
  ++stats_.parked_total;
  ++mutations_;
  parked_now_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<vm::NetRef> NameService::lookup_id(const std::string& site,
                                                 const std::string& name) const {
  auto it = ids_.find({site, name});
  if (it == ids_.end()) return std::nullopt;
  return it->second.ref;
}

std::size_t NameService::parked() const {
  std::size_t n = 0;
  for (const auto& [k, v] : waiting_) n += v.size();
  return n;
}

std::size_t NameService::evict_node(std::uint32_t node,
                                    std::vector<net::Packet>* out) {
  std::size_t dropped = 0;
  // SiteTable: the dead node's sites are gone; lookups must stop
  // resolving to them.
  for (auto it = sites_.begin(); it != sites_.end();) {
    if (it->second.node == node) {
      it = sites_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  // IdTable: bindings whose referent lived on the dead node are dead
  // references. The credit the service holds for them is NOT released —
  // there is no owner left to receive a REL; survivors write the
  // balance off through their own PEER-DOWN handling.
  for (auto it = ids_.begin(); it != ids_.end();) {
    if (it->second.ref.node == node) {
      if (out != nullptr) push_invalidations(it->first, it->second, *out);
      it = ids_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  // Parked lookups from the dead node would pin their keys forever (the
  // requester can never consume a reply).
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    auto& ws = it->second;
    const std::size_t before = ws.size();
    ws.erase(std::remove_if(ws.begin(), ws.end(),
                            [node](const Waiter& w) { return w.node == node; }),
             ws.end());
    const std::size_t removed = before - ws.size();
    if (removed > 0) {
      dropped += removed;
      parked_now_.fetch_sub(static_cast<std::int64_t>(removed),
                            std::memory_order_relaxed);
    }
    if (ws.empty())
      it = waiting_.erase(it);
    else
      ++it;
  }
  if (dropped > 0) {
    stats_.evictions += dropped;
    ++mutations_;
  }
  return dropped;
}

std::vector<NameService::HandoffRecord> NameService::handoff_records() const {
  std::vector<HandoffRecord> out;
  out.reserve(ids_.size());
  for (const auto& [key, e] : ids_)
    out.push_back({key.first, key.second, e.ref, e.type_sig});
  return out;
}

NameService::Snapshot NameService::snapshot() const {
  Snapshot s;
  s.home_node = home_node_;
  s.sites.reserve(sites_.size());
  for (const auto& [name, info] : sites_)
    s.sites.push_back({name, info.node, info.site});
  s.ids.reserve(ids_.size());
  for (const auto& [key, e] : ids_) {
    Snapshot::IdRow row;
    row.site = key.first;
    row.name = key.second;
    row.ref = e.ref;
    row.type_sig = e.type_sig;
    row.credit = e.credit;
    row.gc = e.gc;
    if (auto it = waiting_.find(key); it != waiting_.end())
      row.waiters = it->second.size();
    s.ids.push_back(std::move(row));
  }
  for (const auto& [ref, cum] : released_cum_)
    if (cum > 0) s.releases.push_back({ref, cum});
  s.parked = parked();
  return s;
}

void NameService::publish_snapshot() {
  if (mutations_ == published_mutations_) return;
  published_mutations_ = mutations_;
  auto snap = std::make_shared<const Snapshot>(snapshot());
  std::lock_guard<std::mutex> lk(snap_mu_);
  snap_ = std::move(snap);
}

std::shared_ptr<const NameService::Snapshot> NameService::last_snapshot()
    const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return snap_;
}

void NameService::register_metrics(obs::Registry& registry,
                                   const std::string& label) {
  metrics_reg_ = registry.add_collector([this, label](obs::Collector& c) {
    const std::string l = "{ns=\"" + label + "\"}";
    c.counter("ns_exports" + l, stats_.exports);
    c.counter("ns_lookups" + l, stats_.lookups);
    c.counter("ns_replies" + l, stats_.replies);
    c.counter("ns_parked_total" + l, stats_.parked_total);
    c.counter("ns_unregisters" + l, stats_.unregisters);
    c.counter("ns_releases" + l, stats_.releases);
    c.counter("ns_credit_moves" + l, stats_.credit_moves);
    c.counter("ns_evictions" + l, stats_.evictions);
    c.counter("ns_invalidations_pushed" + l, stats_.invalidations);
    c.gauge("ns_parked" + l, parked_now_.load(std::memory_order_relaxed));
  });
}

std::vector<std::uint8_t> NameService::make_export(
    std::uint32_t /*dst_site_unused*/, const std::string& site,
    const std::string& name, const vm::NetRef& ref,
    const std::string& type_sig, std::uint64_t trace_id, bool sampled,
    std::uint64_t credit) {
  Writer w;
  write_header(w, MsgType::kNsExport, kNsDstSite, trace_id, sampled);
  w.str(site);
  w.str(name);
  write_netref(w, ref);
  w.str(type_sig);
  w.u64(credit);
  return w.take();
}

std::vector<std::uint8_t> NameService::make_unregister(
    const std::string& site, const std::string& name) {
  Writer w;
  write_header(w, MsgType::kNsUnregister, kNsDstSite);
  w.str(site);
  w.str(name);
  return w.take();
}

std::vector<std::uint8_t> NameService::make_lookup(
    const std::string& site, const std::string& name, vm::NetRef::Kind kind,
    std::uint32_t req_node, std::uint32_t req_site, std::uint64_t token,
    std::uint64_t trace_id, bool sampled) {
  Writer w;
  write_header(w, MsgType::kNsLookup, kNsDstSite, trace_id, sampled);
  w.str(site);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(req_node);
  w.u32(req_site);
  w.u64(token);
  return w.take();
}

}  // namespace dityco::core
