#include "harness.hpp"

#include <bit>
#include <stdexcept>

#include "rt/thread.hpp"

namespace perfbench {

std::uint32_t Tracer::open(const char* name, std::uint64_t tag) {
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({name, parent, now_ns(), 0, tag});
  open_.push_back(idx);
  return idx;
}

void Tracer::close(std::uint32_t idx) {
  spans_[idx].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Children of one parent never overlap (spans nest on one host thread),
  // so subtracting each child's duration removes exactly the covered part.
  for (const Span& s : spans_)
    if (s.parent != kNoParent) self[s.parent] -= s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::string, std::size_t> ids;
  std::vector<std::size_t> name_of(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    name_of[i] = ids.try_emplace(spans_[i].name, ids.size()).first->second;
  std::vector<const std::string*> names(ids.size());
  for (const auto& [name, id] : ids) names[id] = &name;

  std::fputs("{\"names\": [", f);
  for (std::size_t i = 0; i < names.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names[i]->c_str());
  std::fputs("],\n\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%zu,%lld,%lld,%lld,%llu]", i == 0 ? "" : ",\n",
                 name_of[i],
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.tag));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Digest::mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

void Pass::validate(const kern::Kernel& k, kern::Pid pid,
                    const std::string& what,
                    std::span<const kern::ThreadCtx> ctxs) {
  check([&](Checks& chk) {
    std::string err;
    try {
      k.validate(pid);
      for (const kern::ThreadCtx& c : ctxs) k.validate(c);
    } catch (const std::logic_error& e) {
      err = e.what();
    }
    chk.expect(err.empty(), what + ": validate(): " + err);
  });
}

void Pass::expect_on_node(const kern::Kernel& k, kern::Pid pid, vm::Vaddr addr,
                          std::uint64_t len, topo::NodeId node,
                          const std::string& what) {
  check([&](Checks& c) {
    const std::uint64_t want = len / mem::kPageSize;
    const std::uint64_t got = k.pages_on_node(pid, addr, len, node);
    c.expect(got == want, what + ": " + std::to_string(got) + "/" +
                              std::to_string(want) + " pages on node " +
                              std::to_string(node));
  });
}

void Pass::add_kernel(const kern::Kernel& k) {
  const kern::KernelStats& s = k.stats();
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"kern.stlb.hits", s.stlb_hits},
      {"kern.stlb.misses", s.stlb_misses},
      {"kern.stlb.invalidations", s.stlb_invalidations},
      {"kern.faults.minor", s.minor_faults},
      {"kern.faults.nexttouch", s.nexttouch_faults},
      {"kern.faults.protection", s.protection_faults},
      {"kern.migrate.pages.move", s.pages_migrated_move},
      {"kern.migrate.pages.process", s.pages_migrated_process},
      {"kern.migrate.pages.nexttouch", s.pages_migrated_nexttouch},
      {"kern.migrate.pages.kmigrated", s.kmigrated_pages},
      {"kern.migrate.failed", s.migrations_failed},
      {"kern.migrate.retries", s.migration_retries},
      {"kern.txn.commits", s.txn_commits},
      {"kern.txn.dirty_retries", s.txn_dirty_retries},
      {"kern.txn.degraded", s.txn_degraded},
      {"kern.txn.aborted", s.txn_aborted},
      {"kern.numab.pages_scanned", s.numab_pages_scanned},
      {"kern.numab.hint_faults", s.numab_hint_faults},
      {"kern.numab.hint_faults_local", s.numab_hint_faults_local},
      {"kern.numab.pages_promoted", s.numab_pages_promoted},
      {"kern.numab.promotions_deferred", s.numab_promotions_deferred},
      {"kern.tier.promotions", s.tier_promotions},
      {"kern.tier.demotions", s.tier_demotions},
      {"kern.tier.demote_passes", s.tier_demote_passes},
      {"kern.kmigrated.batches", s.kmigrated_batches},
      {"kern.signals", s.signals_delivered},
  };
  for (const auto& [name, v] : rows) count(name, static_cast<double>(v));
}

void Pass::add_machine(rt::Machine& m) {
  add_kernel(m.kernel());
  count("sim.events", static_cast<double>(m.engine().events_processed()));
  sim::Time wait = 0;
  for (const auto& th : m.threads())
    wait += th->stats().get(sim::CostKind::kLockWait);
  count("sim.lock_wait_ms", static_cast<double>(wait) * 1e-6);
}

std::uint64_t Pass::final_digest() const {
  Digest d = digest_;
  for (const auto& [name, v] : counts_) {
    for (char ch : name) d.mix(static_cast<unsigned char>(ch));
    d.mix_double(v);
  }
  for (const auto& [name, v] : outputs_) {
    for (char ch : name) d.mix(static_cast<unsigned char>(ch));
    d.mix_double(v);
  }
  return d.value();
}

kern::KernelConfig paper_machine() {
  kern::KernelConfig cfg;
  cfg.topology = topo::Topology::quad_opteron();
  cfg.backing = mem::Backing::kPhantom;
  return cfg;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
