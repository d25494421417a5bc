#include "vm/machine.hpp"

#include <algorithm>
#include <chrono>

#include "support/fmt.hpp"
#include "support/int64.hpp"
#include "vm/verify.hpp"

namespace dityco::vm {

const char* tag_name(Value::Tag t) {
  switch (t) {
    case Value::Tag::kInt: return "int";
    case Value::Tag::kBool: return "bool";
    case Value::Tag::kFloat: return "float";
    case Value::Tag::kStr: return "string";
    case Value::Tag::kChan: return "channel";
    case Value::Tag::kClass: return "class";
    case Value::Tag::kNetRef: return "netref";
  }
  return "?";
}

Machine::Machine(std::string name, std::uint32_t node_id, std::uint32_t site_id,
                 RemoteBackend* backend)
    : name_(std::move(name)),
      node_id_(node_id),
      site_id_(site_id),
      backend_(backend) {}

// ---------------------------------------------------------------------
// Loading and linking
// ---------------------------------------------------------------------

std::uint32_t Machine::link_loaded(std::shared_ptr<const Segment> seg,
                                   std::vector<std::uint32_t> ids,
                                   const SegmentFacts& facts) {
  LinkedSegment ls;
  ls.ids = std::move(ids);
  ls.ids.reserve(ls.ids.size() + seg->labels.size() + seg->strings.size());
  ls.labels_at = static_cast<std::uint32_t>(ls.ids.size());
  for (const auto& l : seg->labels) ls.ids.push_back(labels_.intern(l));
  ls.strings_at = static_cast<std::uint32_t>(ls.ids.size());
  for (const auto& s : seg->strings) ls.ids.push_back(strings_.intern(s));
  ls.seg = std::move(seg);
  ls.entry_base = static_cast<std::uint32_t>(entry_locals_.size());
  entry_locals_.insert(entry_locals_.end(), facts.entry_locals.begin(),
                       facts.entry_locals.end());
  ls.max_locals = facts.max_locals;
  ls.roles = facts.roles;
  if (stack_.size() < facts.max_stack) stack_.resize(facts.max_stack);
  const auto slot = static_cast<std::uint32_t>(linked_.size());
  guid_to_slot_[ls.seg->guid] = slot;
  linked_.push_back(std::move(ls));
  if (prof_.enabled() && !linked_.back().seg->name.empty())
    prof_.set_context_name(slot, linked_.back().seg->name);
  return slot;
}

std::uint32_t Machine::load_program(const Program& p) {
  // Verify the whole program before linking any of it. The results'
  // storage is kept per thread, warm for the next program.
  thread_local std::vector<SegmentFacts> facts;
  if (auto problems = verify_program(p, &facts); !problems.empty())
    throw DecodeError("program failed verification: " + problems[0]);
  // Stamp fresh, globally-unique GUIDs. Compiled programs reference their
  // own segments with placeholder GUIDs {0, 0, k} where k is the index
  // within the program, so slots are pre-assigned and dependencies may
  // point forward.
  std::vector<SegmentGuid> fresh(p.segments.size());
  for (std::size_t k = 0; k < p.segments.size(); ++k)
    fresh[k] = SegmentGuid{node_id_, site_id_, next_guid_index_++};
  const auto base = static_cast<std::uint32_t>(linked_.size());
  for (std::size_t k = 0; k < p.segments.size(); ++k) {
    auto seg = std::make_shared<Segment>(p.segments[k]);
    seg->guid = fresh[k];
    std::vector<std::uint32_t> ids;
    ids.reserve(seg->deps.size() + seg->labels.size() + seg->strings.size());
    for (auto& d : seg->deps) {
      ids.push_back(base + d.index);
      d = fresh[d.index];  // rewrite to the real GUID for future shipping
    }
    link_loaded(std::move(seg), std::move(ids), facts[k]);
  }
  return base + p.root;
}

void Machine::spawn_program(const Program& p) {
  const std::uint32_t root = load_program(p);
  // The entry reading verified with no locals given.
  Frame f;
  f.seg = root;
  f.pc = 0;
  f.locals = values({}, {}, linked_[root].max_locals);
  spawn_frame(std::move(f));
}

std::uint32_t Machine::link(const SegmentGuid& guid,
                            const std::map<SegmentGuid, Segment>& pool,
                            SegmentRole role) {
  return link_shipped(guid, pool,
                      role == SegmentRole::kAny ? 0 : role_bit(role), 0);
}

std::uint32_t Machine::link_shipped(const SegmentGuid& guid,
                                    const std::map<SegmentGuid, Segment>& pool,
                                    std::uint8_t uses, std::size_t depth) {
  auto it = guid_to_slot_.find(guid);
  if (it != guid_to_slot_.end()) {  // dynamic-link cache
    if ((linked_[it->second].roles & uses) != uses)
      throw DecodeError("shipped segment is linked here in another role");
    return it->second;
  }
  if (depth > pool.size())
    throw DecodeError("cyclic dependencies in shipped closure");
  auto pit = pool.find(guid);
  if (pit == pool.end())
    throw DecodeError("missing segment in shipped closure");
  const Segment& seg = pit->second;
  // Shipped code is untrusted input: verify it in the role it will be
  // used in before linking (any reading when nothing references it).
  SegmentRole role = SegmentRole::kAny;
  for (const SegmentRole r :
       {SegmentRole::kEntry, SegmentRole::kObject, SegmentRole::kClass})
    if (uses == role_bit(r)) role = r;
  SegmentFacts facts;
  if (auto problems = verify_segment(seg, role, &facts); !problems.empty())
    throw DecodeError("shipped segment failed verification: " + problems[0]);
  if ((facts.roles & uses) != uses)
    throw DecodeError("shipped segment is not valid in the roles it is "
                      "used in");
  std::vector<std::uint32_t> ids;
  ids.reserve(seg.deps.size() + seg.labels.size() + seg.strings.size());
  for (std::size_t d = 0; d < seg.deps.size(); ++d)
    ids.push_back(
        link_shipped(seg.deps[d], pool, facts.dep_uses[d], depth + 1));
  return link_loaded(std::make_shared<Segment>(seg), std::move(ids), facts);
}

void Machine::collect_closure(std::uint32_t slot,
                              std::vector<Segment>& out) const {
  const LinkedSegment& ls = linked_.at(slot);
  for (const auto& s : out)
    if (s.guid == ls.seg->guid) return;  // already collected
  out.push_back(*ls.seg);
  for (std::size_t d = 0; d < ls.seg->deps.size(); ++d)
    collect_closure(ls.ids[d], out);
}

// ---------------------------------------------------------------------
// Channels and reductions
// ---------------------------------------------------------------------

std::uint32_t Machine::new_channel() {
  if (!free_chans_.empty()) {
    const std::uint32_t idx = free_chans_.back();
    free_chans_.pop_back();
    chan_freed_[idx] = 0;  // free_channel left its queues empty
    return idx;
  }
  heap_.emplace_back();
  chan_freed_.push_back(0);
  return static_cast<std::uint32_t>(heap_.size() - 1);
}

void Machine::reduce(std::uint32_t chan, std::uint32_t seg_slot,
                     std::span<const Value> env, std::uint32_t label,
                     std::span<const Value> args) {
  const LinkedSegment& ls = linked_.at(seg_slot);
  if ((ls.roles & role_bit(SegmentRole::kObject)) == 0) {
    // Never a method table: the object can meet no message, so it goes.
    error("object code does not verify as a method table");
    return;
  }
  // Method table: [nmethods, (labelidx, nparams, offset)*], verified.
  const std::uint32_t* table = ls.seg->code.data();
  const std::uint32_t nmethods = table[0];
  const char* failure = "method not understood: ";
  for (std::uint32_t k = 0; k < nmethods; ++k) {
    const std::uint32_t labelidx = table[1 + 3 * k];
    const std::uint32_t nparams = table[2 + 3 * k];
    const std::uint32_t off = table[3 + 3 * k];
    if (ls.label(labelidx) != label) continue;
    if (nparams != args.size()) {
      failure = "arity mismatch on method ";
      break;
    }
    if (env.size() + args.size() < entry_locals_[ls.entry_base + k]) {
      // A closure whose environment is shorter than its code reads.
      error("object environment too short for method " + labels_.name(label));
      return;
    }
    Frame f;
    f.seg = seg_slot;
    f.pc = off;
    f.locals = values(env, args, ls.max_locals);
    ++stats_.comm_reductions;
    if (ring_) ring_->record(obs::EventType::kComm, 0, label);
    spawn_frame(std::move(f));
    return;
  }
  error(failure + labels_.name(label));
  heap_[chan].objs.push_front(
      ObjClosure{seg_slot, std::vector<Value>(env.begin(), env.end())});
  ++pending_objs_;
}

bool Machine::meet_object(std::uint32_t chan, std::uint32_t label,
                          std::span<const Value> args) {
  gc_dirty_ = true;
  Channel& ch = heap_.at(chan);
  if (ch.objs.empty()) return false;
  ObjClosure obj = ch.objs.pop_front();
  --pending_objs_;
  reduce(chan, obj.seg, obj.env, label, args);
  recycle(std::move(obj.env));
  return true;
}

bool Machine::meet_message(std::uint32_t chan, std::uint32_t seg,
                           std::span<const Value> env) {
  gc_dirty_ = true;
  Channel& ch = heap_.at(chan);
  if (ch.msgs.empty()) return false;
  PendingMsg msg = ch.msgs.pop_front();
  --pending_msgs_;
  reduce(chan, seg, env, msg.label, msg.args);
  recycle(std::move(msg.args));
  return true;
}

void Machine::channel_send(std::uint32_t chan, std::uint32_t label,
                           std::vector<Value> args) {
  if (meet_object(chan, label, args)) return;
  heap_[chan].msgs.push_back(PendingMsg{label, std::move(args)});
  ++pending_msgs_;
}

void Machine::channel_recv(std::uint32_t chan, ObjClosure obj) {
  if (meet_message(chan, obj.seg, obj.env)) return;
  heap_[chan].objs.push_back(std::move(obj));
  ++pending_objs_;
}

namespace {
// Bounds of the recycled-vector pool: 64 vectors of at most 64 values.
constexpr std::size_t kSpareVectors = 64;
constexpr std::size_t kSpareCapacity = 64;
}  // namespace

std::vector<Value> Machine::values(std::span<const Value> a,
                                   std::span<const Value> b,
                                   std::size_t size) {
  std::vector<Value> v;
  if (!spare_.empty()) {
    v = std::move(spare_.back());
    spare_.pop_back();
  }
  v.reserve(std::max(a.size() + b.size(), size));
  v.insert(v.end(), a.begin(), a.end());
  v.insert(v.end(), b.begin(), b.end());
  if (v.size() < size) v.resize(size);
  return v;
}

void Machine::recycle(std::vector<Value>&& v) {
  if (v.capacity() == 0 || v.capacity() > kSpareCapacity ||
      spare_.size() >= kSpareVectors)
    return;
  v.clear();
  spare_.push_back(std::move(v));
}

std::uint32_t Machine::make_block(std::uint32_t seg_slot,
                                  std::vector<Value> env) {
  blocks_.push_back(Block{seg_slot, std::move(env)});
  return static_cast<std::uint32_t>(blocks_.size() - 1);
}

Value Machine::make_class_value(std::uint32_t block, std::uint32_t cls) {
  classes_.push_back(ClassEntry{block, cls});
  return Value::make_class(static_cast<std::uint32_t>(classes_.size() - 1));
}

void Machine::instantiate_class(Value cls, std::span<const Value> args) {
  if (cls.tag != Value::Tag::kClass) {
    error("instantiation of a non-class value");
    return;
  }
  const ClassEntry& entry = classes_.at(cls.idx);
  const Block& blk = blocks_.at(entry.block);
  const LinkedSegment& ls = linked_.at(blk.seg);
  if ((ls.roles & role_bit(SegmentRole::kClass)) == 0) {
    error("block code does not verify as a class table");
    return;
  }
  // Class table: [nclasses, (nparams, offset)*], verified.
  const std::uint32_t* table = ls.seg->code.data();
  if (entry.cls >= table[0]) {
    error("class index out of range");
    return;
  }
  const std::uint32_t nparams = table[1 + 2 * entry.cls];
  const std::uint32_t off = table[2 + 2 * entry.cls];
  if (nparams != args.size()) {
    error("arity mismatch instantiating class");
    return;
  }
  if (blk.env.size() + args.size() < entry_locals_[ls.entry_base + entry.cls]) {
    error("block environment too short for its class");
    return;
  }
  Frame f;
  f.seg = blk.seg;
  f.pc = off;
  f.block = entry.block;
  f.locals = values(blk.env, args, ls.max_locals);
  ++stats_.inst_reductions;
  if (ring_) ring_->record(obs::EventType::kInst, 0, entry.cls);
  spawn_frame(std::move(f));
}

// ---------------------------------------------------------------------
// Deliveries (called by the communication daemon)
// ---------------------------------------------------------------------

void Machine::io_send(const std::string& chan_name, const std::string& label,
                      std::vector<Value> args) {
  auto [it, inserted] = globals_.try_emplace(chan_name, 0);
  if (inserted) it->second = new_channel();
  channel_send(it->second, labels_.intern(label), std::move(args));
}

void Machine::deliver_message(std::uint64_t heap_id, const std::string& label,
                              std::vector<Value> args) {
  Value chan = resolve_exported_chan(heap_id);
  channel_send(chan.idx, labels_.intern(label), std::move(args));
}

void Machine::deliver_object(std::uint64_t heap_id, std::uint32_t seg_slot,
                             std::vector<Value> env) {
  Value chan = resolve_exported_chan(heap_id);
  channel_recv(chan.idx, ObjClosure{seg_slot, std::move(env)});
}

void Machine::resume_import(std::uint64_t token, Value v) {
  gc_dirty_ = true;
  auto it = parked_.find(token);
  if (it == parked_.end()) {
    error("resume of unknown import token");
    return;
  }
  ParkedFrame pf = std::move(it->second);
  parked_.erase(it);
  pf.frame.locals[pf.dst] = v;  // a verified slot of a sized frame
  spawn_frame(std::move(pf.frame));
}

// ---------------------------------------------------------------------
// Export table
// ---------------------------------------------------------------------

std::uint64_t Machine::export_chan(std::uint32_t chan_idx) {
  auto it = chan_to_heapid_.find(chan_idx);
  if (it != chan_to_heapid_.end()) return it->second;
  const std::uint64_t id = next_heap_id_++;
  chan_to_heapid_[chan_idx] = id;
  chan_exports_[id].local = chan_idx;
  return id;
}

std::uint64_t Machine::export_class_value(Value cls) {
  if (cls.tag != Value::Tag::kClass)
    throw DecodeError("export of a non-class value as class");
  auto it = class_to_heapid_.find(cls.idx);
  if (it != class_to_heapid_.end()) return it->second;
  const std::uint64_t id = next_heap_id_++;
  class_to_heapid_[cls.idx] = id;
  class_exports_[id].local = cls.idx;
  return id;
}

Value Machine::resolve_exported_chan(std::uint64_t heap_id) const {
  auto it = chan_exports_.find(heap_id);
  if (it == chan_exports_.end())
    throw DecodeError("unknown channel HeapId in network reference");
  return Value::make_chan(it->second.local);
}

Value Machine::resolve_exported_class(std::uint64_t heap_id) const {
  auto it = class_exports_.find(heap_id);
  if (it == class_exports_.end())
    throw DecodeError("unknown class HeapId in network reference");
  return Value::make_class(it->second.local);
}

// ---------------------------------------------------------------------
// Distributed GC: credit accounting (DESIGN.md §GC)
// ---------------------------------------------------------------------

namespace {

/// Releaser identity, packed for the per-entry cumulative-release map.
std::uint64_t releaser_key(std::uint32_t node, std::uint32_t site) {
  return (static_cast<std::uint64_t>(node) << 32) | site;
}

/// Synthetic releaser site for failure write-offs (no real site carries
/// this id, so forgiven credit cannot collide with a live REL stream).
constexpr std::uint32_t kWriteOffSite = 0xffffffffu;

/// Pay down a debtor's slot by up to `amount`; drops empty slots.
void pay_debt(std::map<std::uint32_t, std::uint64_t>& debt,
              std::uint32_t node, std::uint64_t amount) {
  auto it = debt.find(node);
  if (it == debt.end()) return;
  if (it->second <= amount)
    debt.erase(it);
  else
    it->second -= amount;
}

}  // namespace

Machine::ExportEntry* Machine::find_export(NetRef::Kind kind,
                                           std::uint64_t heap_id) {
  auto& tbl =
      kind == NetRef::Kind::kChan ? chan_exports_ : class_exports_;
  auto it = tbl.find(heap_id);
  return it == tbl.end() ? nullptr : &it->second;
}

bool Machine::maybe_reclaim(NetRef::Kind kind, std::uint64_t heap_id) {
  auto& tbl =
      kind == NetRef::Kind::kChan ? chan_exports_ : class_exports_;
  auto it = tbl.find(heap_id);
  if (it == tbl.end()) return false;
  const ExportEntry& e = it->second;
  if (e.names > 0 || e.outstanding() > 0) return false;
  if (kind == NetRef::Kind::kChan)
    chan_to_heapid_.erase(e.local);
  else
    class_to_heapid_.erase(e.local);
  tbl.erase(it);
  ++gc_stats_.exports_reclaimed;
  // The local channel may now be garbage; let the next collection see it.
  gc_dirty_ = true;
  return true;
}

std::uint64_t Machine::mint(ExportEntry& e) {
  e.minted += kMintCredit;
  if (credit_peer_ != kNoPeer) e.debt[credit_peer_] += kMintCredit;
  e.touched_ns = obs::trace_now_ns();
  if (credit_trace_ != 0) e.last_trace = credit_trace_;
  ++gc_stats_.credit_mints;
  return kMintCredit;
}

std::pair<std::uint64_t, std::uint64_t> Machine::export_chan_credit(
    std::uint32_t chan_idx) {
  const std::uint64_t id = export_chan(chan_idx);
  return {id, mint(chan_exports_[id])};
}

std::pair<std::uint64_t, std::uint64_t> Machine::export_class_credit(
    Value cls) {
  const std::uint64_t id = export_class_value(cls);
  return {id, mint(class_exports_[id])};
}

std::uint64_t Machine::mint_export_credit(const NetRef& ref) {
  ExportEntry* e = find_export(ref.kind, ref.heap_id);
  return e ? mint(*e) : 0;
}

void Machine::return_export_credit(NetRef::Kind kind, std::uint64_t heap_id,
                                   std::uint64_t credit) {
  ExportEntry* e = find_export(kind, heap_id);
  if (!e) {
    ++gc_stats_.rel_stale;
    return;
  }
  e->returned += credit;
  if (credit_peer_ != kNoPeer) pay_debt(e->debt, credit_peer_, credit);
  e->touched_ns = obs::trace_now_ns();
  maybe_reclaim(kind, heap_id);
}

void Machine::attribute_export_credit(NetRef::Kind kind,
                                      std::uint64_t heap_id,
                                      std::uint32_t node,
                                      std::uint64_t amount) {
  ExportEntry* e = find_export(kind, heap_id);
  if (!e || amount == 0) return;
  // The share came out of the sender's hand. When the sender carries a
  // debt slot here (the name service: the mint was attributed to the
  // shard primary), drain it so Σ debt keeps tracking outstanding —
  // without the drain, writing off a dead primary would forgive credit
  // that importers still hold (the premature-free direction). An
  // unattributed sender has no slot and the attribution only adds
  // precision to a future write-off.
  if (credit_peer_ != kNoPeer && credit_peer_ != node)
    pay_debt(e->debt, credit_peer_, amount);
  e->debt[node] += amount;
}

std::uint64_t Machine::write_off_node(std::uint32_t node) {
  std::uint64_t total = 0;
  for (const auto kind : {NetRef::Kind::kChan, NetRef::Kind::kClass}) {
    auto& tbl = kind == NetRef::Kind::kChan ? chan_exports_ : class_exports_;
    std::vector<std::uint64_t> drained;
    for (auto& [id, e] : tbl) {
      auto it = e.debt.find(node);
      if (it == e.debt.end()) continue;
      const std::uint64_t forgiven = std::min(it->second, e.outstanding());
      e.debt.erase(it);
      if (forgiven == 0) continue;
      // Forgive via a synthetic cumulative-release slot so every other
      // invariant (max-merge, outstanding(), reclaim rule) is untouched.
      // Accumulating is safe: only write-offs touch this slot and each
      // addition reflects distinct forgiven credit.
      e.released[releaser_key(node, kWriteOffSite)] += forgiven;
      e.touched_ns = obs::trace_now_ns();
      total += forgiven;
      if (e.outstanding() == 0) drained.push_back(id);
    }
    for (const std::uint64_t id : drained) maybe_reclaim(kind, id);
  }
  if (total > 0) {
    gc_stats_.credit_written_off += total;
    gc_dirty_ = true;
  }
  return total;
}

void Machine::pin_name(const NetRef& ref) {
  if (ExportEntry* e = find_export(ref.kind, ref.heap_id)) {
    ++e->names;
    e->touched_ns = obs::trace_now_ns();
  }
}

void Machine::unpin_name(const NetRef& ref) {
  ExportEntry* e = find_export(ref.kind, ref.heap_id);
  if (!e || e->names == 0) return;
  --e->names;
  e->touched_ns = obs::trace_now_ns();
  maybe_reclaim(ref.kind, ref.heap_id);
}

Machine::ReleaseResult Machine::apply_release(NetRef::Kind kind,
                                              std::uint64_t heap_id,
                                              std::uint32_t rel_node,
                                              std::uint32_t rel_site,
                                              std::uint64_t cum) {
  ExportEntry* e = find_export(kind, heap_id);
  if (!e) {
    // Already reclaimed (heap ids are never reused, so this REL can only
    // be a retransmission that arrived after the entry drained).
    ++gc_stats_.rel_stale;
    return ReleaseResult::kStale;
  }
  std::uint64_t& slot = e->released[releaser_key(rel_node, rel_site)];
  if (cum <= slot) {
    // A duplicate (==) or a reordered older total (<): cumulative totals
    // only grow, so the max already merged covers this delivery.
    ++gc_stats_.rel_stale;
    return ReleaseResult::kStale;
  }
  pay_debt(e->debt, rel_node, cum - slot);
  slot = cum;
  e->touched_ns = obs::trace_now_ns();
  return maybe_reclaim(kind, heap_id) ? ReleaseResult::kReclaimed
                                      : ReleaseResult::kApplied;
}

std::uint64_t Machine::split_netref_credit(std::uint32_t idx) {
  std::uint64_t& bal = netref_credit_.at(idx);
  const std::uint64_t share = bal / 2;
  if (share == 0)
    ++gc_stats_.credit_starved;  // ships a weak handle (may leak, safe)
  bal -= share;
  return share;
}

std::uint32_t Machine::intern_netref_credit(const NetRef& r,
                                            std::uint64_t credit) {
  const std::uint32_t idx = intern_netref(r);
  netref_credit_[idx] += credit;
  return idx;
}

std::uint64_t Machine::exports_outstanding() const {
  std::uint64_t sum = 0;
  for (const auto& [id, e] : chan_exports_) sum += e.outstanding();
  for (const auto& [id, e] : class_exports_) sum += e.outstanding();
  return sum;
}

std::uint64_t Machine::netref_credit_total() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < netref_credit_.size(); ++i)
    if (!netref_freed_[i]) sum += netref_credit_[i];
  return sum;
}

std::vector<std::pair<NetRef, std::uint64_t>>
Machine::take_pending_releases() {
  std::vector<std::pair<NetRef, std::uint64_t>> out;
  out.reserve(pending_rel_.size());
  for (const NetRef& ref : pending_rel_) out.emplace_back(ref, rel_cum_[ref]);
  pending_rel_.clear();
  return out;
}

std::vector<std::pair<NetRef, std::uint64_t>> Machine::all_releases() const {
  std::vector<std::pair<NetRef, std::uint64_t>> out;
  for (const auto& [ref, cum] : rel_cum_)
    if (cum > 0) out.emplace_back(ref, cum);
  return out;
}

Machine::GcSnapshot Machine::gc_snapshot() const {
  GcSnapshot s;
  s.node = node_id_;
  s.site = site_id_;
  s.name = name_;
  s.steady_now_ns = obs::trace_now_ns();
  s.wall_now_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  auto copy_table = [&](NetRef::Kind kind,
                        const std::map<std::uint64_t, ExportEntry>& tbl) {
    for (const auto& [id, e] : tbl) {
      GcSnapshot::Entry out;
      out.kind = kind;
      out.heap_id = id;
      out.local = e.local;
      out.minted = e.minted;
      out.returned = e.returned;
      out.released = e.released_total();
      out.outstanding = e.outstanding();
      out.pins = e.names;
      out.touched_ns = e.touched_ns;
      out.last_trace = e.last_trace;
      out.releasers.assign(e.released.begin(), e.released.end());
      out.debt.assign(e.debt.begin(), e.debt.end());
      s.outstanding += out.outstanding;
      s.exports.push_back(std::move(out));
    }
  };
  copy_table(NetRef::Kind::kChan, chan_exports_);
  copy_table(NetRef::Kind::kClass, class_exports_);
  for (std::size_t i = 0; i < netrefs_.size(); ++i) {
    if (netref_freed_[i]) continue;
    GcSnapshot::Held h;
    h.ref = netrefs_[i];
    h.credit = netref_credit_[i];
    s.held += h.credit;
    s.imports.push_back(h);
  }
  for (const auto& [ref, cum] : rel_cum_)
    if (cum > 0) s.releases.push_back({ref, cum});
  s.live_channels = live_channels();
  s.free_channels = free_chans_.size();
  s.live_netrefs = live_netrefs();
  s.free_netrefs = free_netrefs_.size();
  return s;
}

void Machine::free_channel(std::uint32_t idx) {
  pending_msgs_ -= heap_[idx].msgs.size();
  pending_objs_ -= heap_[idx].objs.size();
  // clear(), not a fresh Channel{}: the slot keeps its queues' capacity
  // for the next new_channel() instead of freeing and reallocating it.
  heap_[idx].msgs.clear();
  heap_[idx].objs.clear();
  chan_freed_[idx] = 1;
  free_chans_.push_back(idx);
  ++gc_stats_.channels_freed;
}

void Machine::free_netref(std::uint32_t idx) {
  const NetRef ref = netrefs_[idx];
  const std::uint64_t credit = netref_credit_[idx];
  if (credit > 0) {
    // The dropped balance joins this machine's cumulative release total
    // for the reference; the owning site learns via an async REL.
    rel_cum_[ref] += credit;
    pending_rel_.push_back(ref);
  }
  netref_ids_.erase(ref);
  netref_credit_[idx] = 0;
  netref_freed_[idx] = 1;
  free_netrefs_.push_back(idx);
  ++gc_stats_.netrefs_freed;
}

Machine::GcOutcome Machine::gc(const std::vector<Value>& extra_roots,
                               const std::vector<NetRef>& pinned) {
  gc_dirty_ = false;
  ++gc_stats_.collections;

  std::vector<std::uint8_t> cmark(heap_.size(), 0);
  std::vector<std::uint8_t> bmark(blocks_.size(), 0);
  std::vector<std::uint8_t> clmark(classes_.size(), 0);
  std::vector<std::uint8_t> nmark(netrefs_.size(), 0);
  std::vector<Value> work;

  auto mark_block = [&](std::uint32_t blk) {
    if (blk == Frame::kNoBlock || blk >= bmark.size() || bmark[blk]) return;
    bmark[blk] = 1;
    for (const Value& v : blocks_[blk].env) work.push_back(v);
  };
  auto mark_value = [&](const Value& v) {
    switch (v.tag) {
      case Value::Tag::kChan:
        if (v.idx < cmark.size() && !chan_freed_[v.idx] && !cmark[v.idx]) {
          cmark[v.idx] = 1;
          for (const auto& m : heap_[v.idx].msgs)
            for (const Value& a : m.args) work.push_back(a);
          for (const auto& o : heap_[v.idx].objs)
            for (const Value& e : o.env) work.push_back(e);
        }
        return;
      case Value::Tag::kClass:
        if (v.idx < clmark.size() && !clmark[v.idx]) {
          clmark[v.idx] = 1;
          mark_block(classes_[v.idx].block);
        }
        return;
      case Value::Tag::kNetRef:
        if (v.idx < nmark.size() && !netref_freed_[v.idx]) nmark[v.idx] = 1;
        return;
      default:
        return;
    }
  };
  auto mark_frame = [&](const Frame& f) {
    for (const Value& v : f.locals) work.push_back(v);
    for (const Value& v : f.stack) work.push_back(v);
    mark_block(f.block);
  };

  // Roots: runnable and parked frames, free-name channels, live export
  // entries (a remote holder may still reach them), caller-supplied
  // roots, and pinned netrefs.
  for (const Frame& f : queue_) mark_frame(f);
  for (const auto& [tok, pf] : parked_) mark_frame(pf.frame);
  for (const auto& [nm, idx] : globals_) work.push_back(Value::make_chan(idx));
  for (const auto& [id, e] : chan_exports_)
    work.push_back(Value::make_chan(e.local));
  for (const auto& [id, e] : class_exports_)
    work.push_back(Value::make_class(e.local));
  for (const Value& v : extra_roots) work.push_back(v);
  for (const NetRef& ref : pinned)
    if (auto it = netref_ids_.find(ref); it != netref_ids_.end())
      nmark[it->second] = 1;

  while (!work.empty()) {
    const Value v = work.back();
    work.pop_back();
    mark_value(v);
  }

  GcOutcome out;
  for (std::uint32_t i = 0; i < heap_.size(); ++i)
    if (!chan_freed_[i] && !cmark[i]) {
      free_channel(i);
      ++out.channels_freed;
    }
  for (std::uint32_t i = 0; i < netrefs_.size(); ++i)
    if (!netref_freed_[i] && !nmark[i]) {
      free_netref(i);
      ++out.netrefs_freed;
    }
  return out;
}

std::uint32_t Machine::intern_netref(const NetRef& r) {
  auto it = netref_ids_.find(r);
  if (it != netref_ids_.end()) return it->second;
  if (!free_netrefs_.empty()) {
    const std::uint32_t idx = free_netrefs_.back();
    free_netrefs_.pop_back();
    netref_freed_[idx] = 0;
    netrefs_[idx] = r;
    netref_credit_[idx] = 0;
    netref_ids_[r] = idx;
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(netrefs_.size());
  netrefs_.push_back(r);
  netref_credit_.push_back(0);
  netref_freed_.push_back(0);
  netref_ids_[r] = idx;
  return idx;
}

std::uint32_t Machine::intern_string(std::string_view s) {
  return strings_.intern(s);
}

void Machine::enable_profiling(std::uint64_t period) {
  prof_.enable(period);
  prof_countdown_ = period;
  if (period == 0) return;
  // Segments linked before enabling get their names registered
  // retroactively; link_loaded covers everything after.
  for (std::size_t slot = 0; slot < linked_.size(); ++slot)
    if (!linked_[slot].seg->name.empty())
      prof_.set_context_name(static_cast<std::uint32_t>(slot),
                             linked_[slot].seg->name);
}

std::string Machine::profile_folded() const {
  std::vector<obs::Profiler::Sample> samples = prof_.snapshot();
  std::sort(samples.begin(), samples.end(),
            [](const obs::Profiler::Sample& a, const obs::Profiler::Sample& b) {
              return a.count > b.count;
            });
  std::string out;
  for (const auto& smp : samples) {
    out += name_ + ";" + prof_.context_name(smp.ctx) + ";" +
           op_name(static_cast<Op>(smp.op)) + " " +
           std::to_string(smp.count) + "\n";
  }
  return out;
}

void Machine::register_metrics(obs::Registry& registry) {
  metrics_reg_ = registry.add_collector([this](obs::Collector& c) {
    const std::string l = "{site=\"" + name_ + "\"}";
    c.counter("vm_instructions" + l, stats_.instructions);
    c.counter("vm_comm_reductions" + l, stats_.comm_reductions);
    c.counter("vm_inst_reductions" + l, stats_.inst_reductions);
    c.counter("vm_forks" + l, stats_.forks);
    c.counter("vm_frames_run" + l, stats_.frames_run);
    c.counter("vm_prints" + l, stats_.prints);
    if (prof_.enabled()) {
      c.counter("vm_profile_samples" + l, prof_.total());
      c.counter("vm_profile_overflow" + l, prof_.overflow());
      c.histogram("vm_run_wait_us" + l, run_wait_us_.snapshot());
      for (const auto& smp : prof_.snapshot())
        c.counter("site_vm_opcode_samples{site=\"" + name_ + "\",def=\"" +
                      prof_.context_name(smp.ctx) + "\",op=\"" +
                      op_name(static_cast<Op>(smp.op)) + "\"}",
                  smp.count);
    }
  });
  // The gauges walk executor-owned containers, so they are exposed only
  // when the machine is at rest (skipped by live scrapes).
  gauges_reg_ = registry.add_collector(
      [this](obs::Collector& c) {
        const std::string l = "{site=\"" + name_ + "\"}";
        c.gauge("vm_runnable" + l, static_cast<std::int64_t>(queue_.size()));
        c.gauge("vm_parked" + l, static_cast<std::int64_t>(parked_.size()));
        c.gauge("vm_pending_messages" + l,
                static_cast<std::int64_t>(pending_msgs_));
        c.gauge("vm_pending_objects" + l,
                static_cast<std::int64_t>(pending_objs_));
      },
      /*live_safe=*/false);
}

std::string Machine::display(const Value& v) const {
  switch (v.tag) {
    case Value::Tag::kInt: return std::to_string(v.i);
    case Value::Tag::kBool: return v.b ? "true" : "false";
    case Value::Tag::kFloat: return format_f64(v.f);
    case Value::Tag::kStr: return strings_.name(v.idx);
    case Value::Tag::kChan: return "#chan";
    case Value::Tag::kClass: return "#class";
    case Value::Tag::kNetRef:
      return netrefs_.at(v.idx).kind == NetRef::Kind::kChan ? "#chan"
                                                            : "#class";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------

namespace {

bool is_num(const Value& v) {
  return v.tag == Value::Tag::kInt || v.tag == Value::Tag::kFloat;
}
double as_f(const Value& v) {
  return v.tag == Value::Tag::kInt ? static_cast<double>(v.i) : v.f;
}

}  // namespace

std::uint64_t Machine::run(std::uint64_t max_instructions) {
  const bool tracing = ring_ && ring_->enabled() && !queue_.empty();
  if (tracing) ring_->record(obs::EventType::kSliceBegin, 0);
  std::uint64_t executed = 0;
  while (!queue_.empty() && executed < max_instructions) {
    Frame f = queue_.pop_front();
    ++stats_.frames_run;
    if (f.enq_ns != 0) {
      const std::uint64_t now = clock_ns();
      if (now > f.enq_ns)
        run_wait_us_.record((now - f.enq_ns) / 1000);
      f.enq_ns = 0;  // preempted frames are not re-measured
    }
    bool requeue = false;
    executed += exec(f, max_instructions - executed, requeue);
    if (requeue)
      queue_.push_front(std::move(f));
    else
      recycle(std::move(f.locals));
  }
  stats_.instructions += executed;
  if (executed > 0) gc_dirty_ = true;
  if (tracing) ring_->record(obs::EventType::kSliceEnd, 0, executed);
  return executed;
}

std::uint64_t Machine::exec(Frame& f, std::uint64_t budget, bool& requeue) {
  // The frame's code verified when it was linked and its locals were
  // sized when it was made (DESIGN.md "Verification"): operands are read
  // per case at the instruction pointer, pushes and pops need no bounds
  // check, and locals are read and written directly. What stays checked
  // here is the language's dynamic semantics: value tags, division by
  // zero, loadsib outside a block, mkblock's class count.
  std::uint64_t n = 0;
  const LinkedSegment* ls = &linked_[f.seg];
  const std::uint32_t* const code = ls->seg->code.data();
  const std::uint32_t* ip = code + f.pc;
  Value* const locals = f.locals.data();

  // Operands live in the machine's buffer while the frame runs; a frame
  // that left mid-expression brings its saved operands back.
  Value* base = stack_.data();
  Value* sp = std::copy(f.stack.begin(), f.stack.end(), base);
  f.stack.clear();
  // Leaving mid-expression (preempted or parked): the operands and the
  // pc go with the frame.
  auto leave = [&](const std::uint32_t* resume) {
    f.pc = static_cast<std::uint32_t>(resume - code);
    f.stack.assign(base, sp);
  };
  // The top k operands as one range. It stays valid until the next push.
  auto top = [&](std::uint32_t k) -> std::span<const Value> {
    return {sp - k, k};
  };
  // Backend calls may re-enter the machine and link new segments, which
  // can reallocate linked_ and grow the operand buffer; the code itself
  // is shared and does not move.
  auto refresh = [&] {
    ls = &linked_[f.seg];
    const std::ptrdiff_t depth = sp - base;
    base = stack_.data();
    sp = base + depth;
  };
  // Instruction width: the opcode word plus its operand words.
  constexpr auto width = [](Op o) {
    return 1 + detail::kOpArity[static_cast<std::uint32_t>(o)];
  };

  try {
    for (;;) {
      if (n >= budget) {
        requeue = true;  // preempted: resume this frame next time
        leave(ip);
        return n;
      }
      const Op op = static_cast<Op>(ip[0]);
      // Sampled profiler: prof_countdown_ stays 0 while profiling is
      // off, so the common case is a single not-taken branch.
      if (prof_countdown_ != 0 && --prof_countdown_ == 0) {
        prof_countdown_ = prof_.period();
        prof_.sample(static_cast<std::uint32_t>(op), f.seg);
      }
      ++n;

      switch (op) {
        case Op::kHalt:
          return n;
        case Op::kPushInt: {
          const std::uint64_t lo = ip[1], hi = ip[2];
          *sp++ = Value::make_int(static_cast<std::int64_t>(lo | (hi << 32)));
          ip += width(Op::kPushInt);
          break;
        }
        case Op::kPushFloat:
          *sp++ = Value::make_float(ls->seg->floats[ip[1]]);
          ip += width(Op::kPushFloat);
          break;
        case Op::kPushStr:
          *sp++ = Value::make_str(ls->string(ip[1]));
          ip += width(Op::kPushStr);
          break;
        case Op::kPushBool:
          *sp++ = Value::make_bool(ip[1] != 0);
          ip += width(Op::kPushBool);
          break;
        case Op::kLoad:
          *sp++ = locals[ip[1]];
          ip += width(Op::kLoad);
          break;
        case Op::kStore:
          locals[ip[1]] = *--sp;
          ip += width(Op::kStore);
          break;

        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kDiv:
        case Op::kMod:
        case Op::kLt:
        case Op::kLe:
        case Op::kGt:
        case Op::kGe: {
          const Value r = *--sp, l = *--sp;
          if (l.tag == Value::Tag::kInt && r.tag == Value::Tag::kInt) {
            const std::int64_t x = l.i, y = r.i;
            switch (op) {
              case Op::kAdd: *sp++ = Value::make_int(i64::add(x, y)); break;
              case Op::kSub: *sp++ = Value::make_int(i64::sub(x, y)); break;
              case Op::kMul: *sp++ = Value::make_int(i64::mul(x, y)); break;
              case Op::kDiv:
                if (y == 0) throw VmError{"integer division by zero"};
                *sp++ = Value::make_int(i64::div(x, y));
                break;
              case Op::kMod:
                if (y == 0) throw VmError{"integer modulo by zero"};
                *sp++ = Value::make_int(i64::mod(x, y));
                break;
              case Op::kLt: *sp++ = Value::make_bool(x < y); break;
              case Op::kLe: *sp++ = Value::make_bool(x <= y); break;
              case Op::kGt: *sp++ = Value::make_bool(x > y); break;
              case Op::kGe: *sp++ = Value::make_bool(x >= y); break;
              default: break;
            }
          } else if (is_num(l) && is_num(r)) {
            const double x = as_f(l), y = as_f(r);
            switch (op) {
              case Op::kAdd: *sp++ = Value::make_float(x + y); break;
              case Op::kSub: *sp++ = Value::make_float(x - y); break;
              case Op::kMul: *sp++ = Value::make_float(x * y); break;
              case Op::kDiv: *sp++ = Value::make_float(x / y); break;
              case Op::kMod: throw VmError{"modulo on floats"};
              case Op::kLt: *sp++ = Value::make_bool(x < y); break;
              case Op::kLe: *sp++ = Value::make_bool(x <= y); break;
              case Op::kGt: *sp++ = Value::make_bool(x > y); break;
              case Op::kGe: *sp++ = Value::make_bool(x >= y); break;
              default: break;
            }
          } else {
            throw VmError{std::string("non-numeric operands for ") +
                          op_name(op)};
          }
          ip += width(Op::kAdd);
          break;
        }
        case Op::kEq:
        case Op::kNe: {
          const Value r = *--sp, l = *--sp;
          bool eq = false;
          if (l.tag == r.tag) {
            switch (l.tag) {
              case Value::Tag::kInt: eq = l.i == r.i; break;
              case Value::Tag::kBool: eq = l.b == r.b; break;
              case Value::Tag::kFloat: eq = l.f == r.f; break;
              case Value::Tag::kStr:
                eq = strings_.name(l.idx) == strings_.name(r.idx);
                break;
              case Value::Tag::kChan:
              case Value::Tag::kClass:
              case Value::Tag::kNetRef:
                eq = l.idx == r.idx;
                break;
            }
          } else if (is_num(l) && is_num(r)) {
            eq = as_f(l) == as_f(r);
          }
          *sp++ = Value::make_bool(op == Op::kEq ? eq : !eq);
          ip += width(Op::kEq);
          break;
        }
        case Op::kAndB:
        case Op::kOrB: {
          const Value r = *--sp, l = *--sp;
          if (l.tag != Value::Tag::kBool || r.tag != Value::Tag::kBool)
            throw VmError{"non-boolean operands for logical operator"};
          *sp++ = Value::make_bool(op == Op::kAndB ? (l.b && r.b)
                                                   : (l.b || r.b));
          ip += width(Op::kAndB);
          break;
        }
        case Op::kConcat: {
          const Value r = *--sp, l = *--sp;
          if (l.tag != Value::Tag::kStr || r.tag != Value::Tag::kStr)
            throw VmError{"non-string operands for ++"};
          *sp++ = Value::make_str(
              strings_.intern(strings_.name(l.idx) + strings_.name(r.idx)));
          ip += width(Op::kConcat);
          break;
        }
        case Op::kNeg: {
          const Value v = *--sp;
          if (v.tag == Value::Tag::kInt)
            *sp++ = Value::make_int(i64::neg(v.i));
          else if (v.tag == Value::Tag::kFloat)
            *sp++ = Value::make_float(-v.f);
          else
            throw VmError{"non-numeric operand for negation"};
          ip += width(Op::kNeg);
          break;
        }
        case Op::kNot: {
          const Value v = *--sp;
          if (v.tag != Value::Tag::kBool)
            throw VmError{"non-boolean operand for !"};
          *sp++ = Value::make_bool(!v.b);
          ip += width(Op::kNot);
          break;
        }

        case Op::kJmp:
          ip = code + ip[1];
          break;
        case Op::kJmpIfFalse: {
          const Value v = *--sp;
          if (v.tag != Value::Tag::kBool)
            throw VmError{"non-boolean condition"};
          ip = v.b ? ip + width(Op::kJmpIfFalse) : code + ip[1];
          break;
        }

        case Op::kNewChan:
          locals[ip[1]] = Value::make_chan(new_channel());
          ip += width(Op::kNewChan);
          break;
        case Op::kGlobal: {
          const std::string& nm = ls->seg->strings[ip[2]];
          auto [it, inserted] = globals_.try_emplace(nm, 0);
          if (inserted) it->second = new_channel();
          locals[ip[1]] = Value::make_chan(it->second);
          ip += width(Op::kGlobal);
          break;
        }

        case Op::kTrMsg: {
          const std::uint32_t a = ip[1], b = ip[2];
          const Value target = *--sp;
          const auto args = top(b);
          if (target.tag == Value::Tag::kChan) {
            const std::uint32_t label = ls->label(a);
            if (!meet_object(target.idx, label, args)) {
              heap_[target.idx].msgs.push_back(
                  PendingMsg{label, values(args)});
              ++pending_msgs_;
            }
          } else if (target.tag == Value::Tag::kNetRef) {
            if (!backend_) throw VmError{"remote message without a backend"};
            backend_->ship_message(*this, netrefs_.at(target.idx),
                                   ls->seg->labels[a],
                                   {args.begin(), args.end()});
            refresh();
          } else {
            throw VmError{std::string("message target is a ") +
                          tag_name(target.tag)};
          }
          sp -= b;
          ip += width(Op::kTrMsg);
          break;
        }
        case Op::kTrObj: {
          const std::uint32_t b = ip[2];
          const Value target = *--sp;
          const auto env = top(b);
          const std::uint32_t seg_slot = ls->dep(ip[1]);
          if (target.tag == Value::Tag::kChan) {
            if (!meet_message(target.idx, seg_slot, env)) {
              heap_[target.idx].objs.push_back(
                  ObjClosure{seg_slot, values(env)});
              ++pending_objs_;
            }
          } else if (target.tag == Value::Tag::kNetRef) {
            if (!backend_) throw VmError{"remote object without a backend"};
            backend_->ship_object(*this, netrefs_.at(target.idx), seg_slot,
                                  {env.begin(), env.end()});
            refresh();
          } else {
            throw VmError{std::string("object location is a ") +
                          tag_name(target.tag)};
          }
          sp -= b;
          ip += width(Op::kTrObj);
          break;
        }
        case Op::kInstOf: {
          const std::uint32_t a = ip[1];
          const Value cls = *--sp;
          const auto args = top(a);
          if (cls.tag == Value::Tag::kClass) {
            instantiate_class(cls, args);
          } else if (cls.tag == Value::Tag::kNetRef) {
            if (!backend_)
              throw VmError{"remote instantiation without a backend"};
            backend_->fetch_instantiate(*this, netrefs_.at(cls.idx),
                                        {args.begin(), args.end()});
            refresh();
          } else {
            throw VmError{std::string("instantiation of a ") +
                          tag_name(cls.tag)};
          }
          sp -= a;
          ip += width(Op::kInstOf);
          break;
        }
        case Op::kFork: {
          // The target verified to read no local beyond the captures.
          const std::uint32_t b = ip[2];
          Frame g;
          g.seg = f.seg;
          g.pc = ip[1];
          g.block = f.block;
          g.locals = values(top(b), {}, ls->max_locals);
          sp -= b;
          ++stats_.forks;
          spawn_frame(std::move(g));
          ip += width(Op::kFork);
          break;
        }
        case Op::kMkBlock: {
          // The dependency verified as a class table when it was linked.
          const std::uint32_t b = ip[2], c = ip[3], d = ip[4];
          const std::uint32_t seg_slot = ls->dep(ip[1]);
          const auto env = top(b);
          const std::uint32_t blk =
              make_block(seg_slot, {env.begin(), env.end()});
          sp -= b;
          if (linked_[seg_slot].seg->code[0] != c)
            throw VmError{"class count mismatch"};
          for (std::uint32_t k = 0; k < c; ++k)
            locals[d + k] = make_class_value(blk, k);
          ip += width(Op::kMkBlock);
          break;
        }
        case Op::kLoadSibling: {
          if (f.block == Frame::kNoBlock)
            throw VmError{"sibling class reference outside a def block"};
          *sp++ = make_class_value(f.block, ip[1]);
          ip += width(Op::kLoadSibling);
          break;
        }
        case Op::kPrint: {
          const std::uint32_t a = ip[1];
          const auto args = top(a);
          std::string line;
          for (std::size_t i = 0; i < args.size(); ++i) {
            if (i) line += ' ';
            line += display(args[i]);
          }
          sp -= a;
          output_.push_back(std::move(line));
          ++stats_.prints;
          ip += width(Op::kPrint);
          break;
        }
        case Op::kExportName:
        case Op::kExportClass: {
          if (!backend_) throw VmError{"export without a backend"};
          const Value v = locals[ip[1]];
          const std::string& nm = ls->seg->strings[ip[2]];
          if (op == Op::kExportName) {
            if (v.tag != Value::Tag::kChan)
              throw VmError{"export of a non-channel"};
            backend_->export_name(*this, nm, v);
          } else {
            if (v.tag != Value::Tag::kClass)
              throw VmError{"export of a non-class"};
            backend_->export_class(*this, nm, v);
          }
          refresh();
          ip += width(Op::kExportName);
          break;
        }
        case Op::kImportName:
        case Op::kImportClass: {
          if (!backend_) throw VmError{"import without a backend"};
          const std::uint32_t dst = ip[1];
          const std::string& site = ls->seg->strings[ip[2]];
          const std::string& nm = ls->seg->strings[ip[3]];
          const std::uint64_t token = next_token_++;
          leave(ip + width(Op::kImportName));
          parked_[token] = ParkedFrame{std::move(f), dst};
          // NOTE: `f` is moved from; we must not touch it again. The
          // backend may resume synchronously (re-entrantly) — that is
          // safe because resume only touches the parked table and queue.
          if (op == Op::kImportName)
            backend_->import_name(*this, site, nm, token);
          else
            backend_->import_class(*this, site, nm, token);
          return n;
        }
      }
    }
  } catch (const VmError& e) {
    error(e.what);
    return n;
  } catch (const std::exception& e) {
    // DecodeError from a backend call, bad_alloc-adjacent failures: the
    // frame dies, the machine survives.
    error(e.what());
    return n;
  }
}

}  // namespace dityco::vm
