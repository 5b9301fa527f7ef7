// Kernel core: process management, the MMU emulation (access / faults),
// page population and migration primitives, and timing-free inspection.
#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "kern/kernel.hpp"

namespace numasim::kern {

namespace {
constexpr unsigned kMaxFaultRetries = 8;
}

Kernel::Kernel(KernelConfig cfg)
    : cfg_(std::move(cfg)),
      hw_(cfg_.topology),
      phys_(cfg_.topology, cfg_.backing, cfg_.max_frames_per_node),
      kmigrated_(cfg_.topology.num_nodes()) {
  if (!cfg_.fault_plan.empty()) {
    owned_injector_ = std::make_unique<FaultInjector>(cfg_.fault_plan,
                                                      cfg_.fault_seed);
    set_fault_injector(owned_injector_.get());
  }
}

Kernel::~Kernel() {
  // Async kmigrated batches still in flight die with the kernel; account
  // them before detaching so an attached registry folds the count into
  // "kern.kmigrated.dropped" instead of losing it silently.
  kstats_.kmigrated_dropped_at_teardown += kmigrated_.total_inflight(kmig_now_);
  set_metrics(nullptr);
}

void Kernel::add_trace_sink(obs::TraceSink* sink) {
  if (sink == nullptr) return;
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end())
    sinks_.push_back(sink);
}

void Kernel::remove_trace_sink(obs::TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  if (sink == elog_) elog_ = nullptr;
}

void Kernel::set_event_log(EventLog* log) {
  if (elog_ != nullptr && elog_ != log) remove_trace_sink(elog_);
  elog_ = log;
  add_trace_sink(log);
}

void Kernel::set_metrics(obs::Registry* reg) {
  if (metrics_ != nullptr && metrics_ != reg) {
    // Fold our bound KernelStats values into the registry's own counters so
    // the totals survive this kernel; drop the gauges (they capture `this`).
    metrics_->retire("kern.");
    metrics_->retire("mem.");
  }
  metrics_ = reg;
  h_fault_ = h_migrate_page_ = h_lock_wait_ = h_shootdown_rounds_ =
      h_kmigrated_batch_ = h_numab_scan_ = h_txn_retries_ = nullptr;
  if (reg == nullptr) return;

#define NUMASIM_BIND_COUNTER(field, name, doc) reg->bind_counter(name, &kstats_.field);
  NUMASIM_KERNEL_COUNTERS(NUMASIM_BIND_COUNTER)
#undef NUMASIM_BIND_COUNTER
  reg->bind_gauge("kern.tier.fast_occupancy", [this] { return fast_occupancy_pct(); });

  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    reg->bind_gauge("mem.used_frames.node" + std::to_string(n), [this, n] {
      return static_cast<std::int64_t>(phys_.used_frames(n));
    });
    reg->bind_gauge("kern.kmigrated.queue_depth.node" + std::to_string(n),
                    [this, n] {
                      return static_cast<std::int64_t>(
                          kmigrated_.queue_depth(n, kmig_now_));
                    });
  }

  h_fault_ = &reg->histogram("kern.fault_service_ns");
  h_migrate_page_ = &reg->histogram("kern.migrate_page_ns");
  h_lock_wait_ = &reg->histogram("kern.lock_wait_ns");
  h_shootdown_rounds_ = &reg->histogram("kern.shootdown_rounds");
  h_kmigrated_batch_ = &reg->histogram("kern.kmigrated.batch_latency_ns");
  h_numab_scan_ = &reg->histogram("kern.numab.scan_pages");
  h_txn_retries_ = &reg->histogram("kern.migrate.txn.retries");
}

obs::TraceEvent Kernel::trace_event(const ThreadCtx& t, obs::TraceEvent::Kind kind,
                                    sim::Time ts, std::string_view cat,
                                    std::string_view name) {
  obs::TraceEvent e;
  e.kind = kind;
  e.ts = ts;
  if (kind == obs::TraceEvent::Kind::kSpan && t.clock >= ts) e.dur = t.clock - ts;
  e.pid = t.pid;
  e.tid = t.tid;
  e.cat = cat;
  e.name = name;
  return e;
}

void Kernel::trace_slow(const ThreadCtx& t, EventType type, vm::Vpn vpn,
                        std::uint64_t pages, topo::NodeId from, topo::NodeId to) {
  emit(trace_event(t, obs::TraceEvent::Kind::kInstant, t.clock, "kern",
                   event_type_name(type))
           .add_arg("vpn", static_cast<std::int64_t>(vpn))
           .add_arg("pages", static_cast<std::int64_t>(pages))
           .add_arg("from", from == topo::kInvalidNode ? -1 : std::int64_t{from})
           .add_arg("to", to == topo::kInvalidNode ? -1 : std::int64_t{to}));
}

void Kernel::emit_instant(const ThreadCtx& t, std::string_view name,
                          std::string_view cat) {
  if (!sinks_.empty())
    emit(trace_event(t, obs::TraceEvent::Kind::kInstant, t.clock, cat, name));
}

void Kernel::emit_span(const ThreadCtx& t, std::string_view name, sim::Time begin,
                       std::string_view cat) {
  if (!sinks_.empty())
    emit(trace_event(t, obs::TraceEvent::Kind::kSpan, begin, cat, name));
}

Pid Kernel::create_process(std::string name) {
  auto p = std::make_unique<Process>();
  p->pid = static_cast<Pid>(procs_.size());
  p->name = std::move(name);
  p->replicas.set_num_nodes(topo_.num_nodes());
  p->placement.init(topo_.num_nodes());
  procs_.push_back(std::move(p));
  return procs_.back()->pid;
}

Kernel::Process& Kernel::proc(Pid pid) {
  if (pid >= procs_.size()) throw std::out_of_range{"Kernel: bad pid"};
  return *procs_[pid];
}

const Kernel::Process& Kernel::proc(Pid pid) const {
  if (pid >= procs_.size()) throw std::out_of_range{"Kernel: bad pid"};
  return *procs_[pid];
}

void Kernel::set_sigsegv_handler(Pid pid, SegvHandler handler) {
  proc(pid).segv = std::move(handler);
}

void Kernel::set_fault_injector(FaultInjector* inj) {
  // Plan specs are untrusted (fuzzer/CLI strings): a cap naming a node this
  // topology doesn't have is ignored — there is nothing to exhaust.
  const auto valid = [this](const FaultPlan::NodeCap& c) {
    return c.node < topo_.num_nodes();
  };
  if (injector_ != nullptr && inj == nullptr) {
    // Detach: restore the capacities the old plan's caps may have clamped.
    for (const FaultPlan::NodeCap& c : injector_->node_caps())
      if (valid(c)) phys_.set_node_capacity(c.node, ~std::uint64_t{0});
  }
  injector_ = inj;
  if (injector_ != nullptr) {
    for (const FaultPlan::NodeCap& c : injector_->node_caps())
      if (valid(c)) phys_.set_node_capacity(c.node, c.frames);
  }
}

Kernel::CopyOutcome Kernel::copy_outcome() {
  CopyOutcome o;
  if (injector_ == nullptr) return o;
  while (true) {
    switch (injector_->copy_verdict()) {
      case CopyVerdict::kOk:
        return o;
      case CopyVerdict::kPermanent:
        o.ok = false;
        return o;
      case CopyVerdict::kTransient:
        if (o.retries >= cost_.copy_retry_max) {  // retry budget exhausted
          o.ok = false;
          return o;
        }
        ++o.retries;
        break;
    }
  }
}

mem::FrameId Kernel::alloc_migration_frame(topo::NodeId node) {
  if (injector_ != nullptr && injector_->fail_alloc(node))
    return mem::kInvalidFrame;
  // Strict __GFP_THISNODE, no reserves: migration targets fail rather than
  // land on the wrong node (Linux's new_page_node()).
  return phys_.alloc_on(node);
}

mem::FrameId Kernel::alloc_migration_frame_or_demote(ThreadCtx& t, Process& p,
                                                     topo::NodeId node,
                                                     sim::CostKind kind) {
  mem::FrameId f = alloc_migration_frame(node);
  // Direct demotion (tiering): push cold — or, failing that, any eligible —
  // pages of `node` down-tier to make room, then retry once. The chain is
  // monotonic down the tier order, so it terminates at the slowest tier.
  if (f == mem::kInvalidFrame && cfg_.tiers.enabled && cfg_.tiers.demotion &&
      tier_demote(t, p, node, cfg_.tiers.demote_batch_pages,
                  /*require_idle=*/false, kind) > 0) {
    charge(t, cost_.demote_direct_stall, kind);
    f = alloc_migration_frame(node);
  }
  return f;
}

mem::FrameId Kernel::alloc_user_frame(ThreadCtx& t, vm::Vpn vpn,
                                      topo::NodeId target) {
  if (injector_ != nullptr && injector_->fail_alloc(target)) {
    // A user fault does not see ENOMEM: it direct-reclaims (charged as a
    // stall) and then succeeds from the zonelist or the reserve pool.
    charge(t, cost_.reclaim_stall, sim::CostKind::kAllocZero);
    ++kstats_.alloc_stalls;
    trace(t, EventType::kAllocStall, vpn, 1, topo::kInvalidNode, target);
  }
  const mem::FrameId f = phys_.alloc_near(target);
  if (f != mem::kInvalidFrame) return f;
  return phys_.alloc_near(target, /*use_reserve=*/true);
}

sim::Time Kernel::shootdown_cost(const ThreadCtx& t) {
  sim::Time c = cost_.tlb_shootdown(topo_.num_cores());
  std::uint64_t rounds = 1;
  if (injector_ != nullptr && injector_->drop_shootdown()) {
    // One IPI was lost: wait out the acknowledgement timeout, re-broadcast.
    c += cost_.tlb_shootdown_resend_wait + cost_.tlb_shootdown(topo_.num_cores());
    ++kstats_.shootdown_retries;
    ++rounds;
    trace(t, EventType::kShootdownRetry, 0, 1);
  }
  if (h_shootdown_rounds_ != nullptr) h_shootdown_rounds_->record(rounds);
  return c;
}

void Kernel::set_task_policy(Pid pid, const vm::MemPolicy& pol) {
  proc(pid).task_policy = pol;
}

void Kernel::populate_page(ThreadCtx& t, Process& p, const vm::Vma& vma,
                           vm::Vpn vpn, vm::Pte& pte) {
  const topo::NodeId local = topo_.node_of_core(t.core);
  const vm::MemPolicy& eff =
      vma.policy.mode != vm::PolicyMode::kDefault ? vma.policy : p.task_policy;
  topo::NodeId target = eff.mode == vm::PolicyMode::kPreferredMany
                            ? preferred_many_target(eff.nodes, local)
                            : eff.target_node(vma.pgoff(vpn), local, topo_.num_nodes());
  if (target == topo::kInvalidNode) target = local;

  const mem::FrameId frame = alloc_user_frame(t, vpn, target);
  if (frame == mem::kInvalidFrame) throw std::runtime_error{"simulated OOM"};

  // Allocation + zero-fill through the target node's DRAM.
  charge(t, cost_.page_alloc + cost_.pte_update, sim::CostKind::kAllocZero);
  const sim::Slot z = hw_.stream(t.clock, topo_.node_of_core(t.core),
                                 phys_.node_of(frame), mem::kPageSize,
                                 cost_.zero_rate_bytes_per_us, MemDir::kWrite);
  t.stats.add(sim::CostKind::kAllocZero, z.finish - t.clock);
  t.clock = z.finish;

  if (std::byte* d = phys_.data(frame)) std::memset(d, 0, mem::kPageSize);

  pte.frame = frame;
  pte.flags = vm::Pte::kPresent | vm::Pte::kAccessed;
  pte.restore_hw(vma.prot);
  p.placement.inc(vpn, phys_.node_of(frame));
  ++kstats_.minor_faults;
  trace(t, EventType::kMinorFault, vpn, 1, topo::kInvalidNode, phys_.node_of(frame));
}

void Kernel::do_serialize_migration(ThreadCtx& t, Process& p, vm::Vaddr lo,
                                    vm::Vaddr hi, sim::Time entry,
                                    std::uint64_t pages, SerialShare per_page) {
  // kRange: the run's serialized work plus one coalesced shootdown round,
  // held on the range locks only — disjoint runs never see each other.
  const sim::Slot slot =
      cfg_.lock_model == LockModel::kRange
          ? range_lock_reserve(t, p, lo, hi, entry,
                               pages * per_page.range + shootdown_round(pages),
                               /*exclusive=*/true)
          : p.migration_pipeline.reserve(entry, pages * per_page.coarse);
  if (slot.finish > t.clock) {
    t.stats.add(sim::CostKind::kLockWait, slot.finish - t.clock);
    note_lock_wait(slot.finish - t.clock);
    t.clock = slot.finish;
  }
}

sim::Slot Kernel::range_lock_reserve(ThreadCtx& t, Process& p, vm::Vaddr lo,
                                     vm::Vaddr hi, sim::Time start,
                                     sim::Time hold, bool exclusive) {
  // Two-phase over every VMA overlapping [lo, hi): each VMA's lock is
  // reserved independently; the work runs once the *last* grant arrives and
  // the combined hold ends at the latest finish.
  sim::Slot out{start, start + hold};
  vm::Vaddr cur = vm::page_align_down(lo);
  const vm::Vaddr end = vm::page_align_up(hi);
  while (cur < end) {
    const vm::Vma* vma = p.as.find(cur);
    if (vma == nullptr) {  // unmapped hole: skip page by page
      cur += mem::kPageSize;
      continue;
    }
    const vm::Vaddr seg_end = std::min(end, vma->end);
    const sim::Slot s = p.vma_locks[vma->lock_id].reserve(
        start, hold, vm::vpn_of(cur), vm::vpn_of(seg_end - 1) + 1, exclusive,
        t.core, cost_.lock_bounce);
    out.start = std::max(out.start, s.start);
    out.finish = std::max(out.finish, s.finish);
    cur = seg_end;
  }
  return out;
}

sim::Time Kernel::shootdown_round(std::uint64_t pages) {
  sim::Time c = cost_.tlb_shootdown_round(topo_.num_cores(), pages);
  std::uint64_t rounds = 1;
  if (injector_ != nullptr && injector_->drop_shootdown()) {
    c += cost_.tlb_shootdown_resend_wait + cost_.tlb_shootdown(topo_.num_cores());
    ++kstats_.shootdown_retries;
    ++rounds;
  }
  ++kstats_.tlb_shootdowns;
  if (h_shootdown_rounds_ != nullptr) h_shootdown_rounds_->record(rounds);
  return c;
}

void Kernel::flush_copy_batch(ThreadCtx& t, CopyBatch& batch, sim::CostKind kind) {
  for (const CopyBatch::Run& r : batch.runs) {
    const sim::Slot c =
        hw_.copy(t.clock, r.from, r.to, r.bytes, cost_.kernel_copy_bytes_per_us);
    t.stats.add(kind, c.finish - t.clock);
    t.clock = c.finish;
  }
  batch.runs.clear();
}

Kernel::MigrateResult Kernel::migrate_page(ThreadCtx& t, Process& p, vm::Pte& pte,
                                           vm::Vpn vpn, topo::NodeId target,
                                           sim::Time control_cost,
                                           sim::CostKind control_kind,
                                           sim::CostKind copy_kind,
                                           CopyBatch* copies) {
  const sim::Time begin = t.clock;
  const topo::NodeId from = phys_.node_of(pte.frame);
  MigrateResult r;
  if (txn_eligible(pte)) {
    // Transactional engine first; a degraded transaction released its
    // shadow frame and left the page untouched, so it falls through to the
    // stop-and-copy pipeline below (the degradation ladder).
    if (do_migrate_page_txn(t, p, vpn, target, control_kind, copy_kind) ==
        TxnResult::kCommitted) {
      r = MigrateResult::kOk;
    } else {
      ++kstats_.txn_degraded;
      trace(t, EventType::kTxnDegraded, vpn, 1, from, target);
      r = do_migrate_page(t, p, pte, vpn, target, control_cost, control_kind,
                          copy_kind, copies);
    }
  } else {
    r = do_migrate_page(t, p, pte, vpn, target, control_cost, control_kind,
                        copy_kind, copies);
  }
  // Per-page pipeline latency. Batched callers defer the copy into `copies`,
  // so their samples cover the control path only (the copy is attributed to
  // the batch flush); inline callers include it.
  if (h_migrate_page_ != nullptr) h_migrate_page_->record(t.clock - begin);
  if (!sinks_.empty())
    emit(trace_event(t, obs::TraceEvent::Kind::kSpan, begin, "kern", "migrate-page")
             .add_arg("vpn", static_cast<std::int64_t>(vpn))
             .add_arg("from", from)
             .add_arg("to", target)
             .add_arg("ok", r == MigrateResult::kOk ? 1 : 0));
  return r;
}

Kernel::MigrateResult Kernel::do_migrate_page(ThreadCtx& t, Process& p,
                                              vm::Pte& pte, vm::Vpn vpn,
                                              topo::NodeId target,
                                              sim::Time control_cost,
                                              sim::CostKind control_kind,
                                              sim::CostKind copy_kind,
                                              CopyBatch* copies) {
  const topo::NodeId from = phys_.node_of(pte.frame);

  // Isolate→alloc: the destination frame must come from the target node.
  const mem::FrameId new_frame =
      alloc_migration_frame_or_demote(t, p, target, control_kind);
  if (new_frame == mem::kInvalidFrame) {
    ++kstats_.migrations_failed;
    trace(t, EventType::kMigrateFail, vpn, 1, from, target);
    return MigrateResult::kNoMem;
  }

  // Control path: isolation, PTE rewrite, local flush. The cross-thread
  // serialization is applied per batch via serialize_migration().
  charge(t, control_cost, control_kind);

  const topo::NodeId to = phys_.node_of(new_frame);
  auto charge_one_copy = [&] {
    if (copies != nullptr) {
      copies->add(from, to, mem::kPageSize);
    } else {
      const sim::Slot c = hw_.copy(t.clock, from, to, mem::kPageSize,
                                   cost_.kernel_copy_bytes_per_us);
      t.stats.add(copy_kind, c.finish - t.clock);
      t.clock = c.finish;
    }
  };

  // Copy, retrying transient failures with exponential backoff. A failed
  // attempt still consumed the copy engine, so it is charged too.
  const CopyOutcome oc = copy_outcome();
  for (unsigned r = 0; r < oc.retries; ++r) {
    charge_one_copy();
    charge(t, cost_.copy_backoff(r), control_kind);
    ++kstats_.migration_retries;
    trace(t, EventType::kMigrateRetry, vpn, 1, from, to);
  }
  if (!oc.ok) {
    // Abort + rollback: release the destination frame; the original frame
    // was never unmapped, so the page stays resident and valid.
    charge_one_copy();  // the final, failed attempt
    phys_.free(new_frame);
    ++kstats_.migrations_failed;
    trace(t, EventType::kMigrateFail, vpn, 1, from, to);
    return MigrateResult::kCopyFail;
  }
  charge_one_copy();
  remap_page(p, pte, vpn, new_frame);
  return MigrateResult::kOk;
}

void Kernel::migrate_batch(ThreadCtx& t, Process& p, std::span<BatchMove> batch,
                           sim::CostKind control_kind, sim::CostKind copy_kind) {
  // Isolate→alloc: destination frames come strictly from the requested node
  // (as Linux's new_page_node with __GFP_THISNODE). A failed allocation
  // degrades this page to ENOMEM *before* any copy bandwidth is spent; the
  // already-isolated page simply stays mapped on its source node.
  for (BatchMove& m : batch) {
    m.nf = alloc_migration_frame_or_demote(t, p, m.to, control_kind);
    if (m.nf == mem::kInvalidFrame) {
      m.result = MigrateResult::kNoMem;
      ++kstats_.migrations_failed;
      trace(t, EventType::kMigrateFail, m.vpn, 1, m.from, m.to);
    } else {
      const CopyOutcome oc = copy_outcome();
      m.copy_retries = oc.retries;
      m.copy_ok = oc.ok;
    }
  }

  // Copies happen outside the lock; coalesce same-route neighbours so the
  // hardware model sees streams, not 4 KiB droplets. Retried attempts
  // consumed the engine too, so each page contributes (retries+1) copies.
  for (std::size_t i = 0, j = 0; i < batch.size(); i = j) {
    std::uint64_t bytes = 0;
    for (; j < batch.size() && batch[j].from == batch[i].from &&
           batch[j].to == batch[i].to;
         ++j) {
      if (batch[j].nf != mem::kInvalidFrame)
        bytes += (batch[j].copy_retries + 1ull) * mem::kPageSize;
    }
    if (bytes != 0) {
      const sim::Slot c = hw_.copy(t.clock, batch[i].from, batch[i].to, bytes,
                                   cost_.kernel_copy_bytes_per_us);
      t.stats.add(copy_kind, c.finish - t.clock);
      t.clock = c.finish;
    }
  }

  for (BatchMove& m : batch) {
    if (m.nf == mem::kInvalidFrame) continue;  // degraded to ENOMEM above
    for (unsigned r = 0; r < m.copy_retries; ++r) {
      charge(t, cost_.copy_backoff(r), control_kind);
      ++kstats_.migration_retries;
      trace(t, EventType::kMigrateRetry, m.vpn, 1, m.from, m.to);
    }
    if (!m.copy_ok) {
      // Permanent copy failure: roll back — free the destination frame and
      // leave the original mapping untouched (Linux: -EAGAIN after the
      // migrate_pages retry loop gives up).
      phys_.free(m.nf);
      m.result = MigrateResult::kCopyFail;
      ++kstats_.migrations_failed;
      trace(t, EventType::kMigrateFail, m.vpn, 1, m.from, m.to);
      continue;
    }
    remap_page(p, *m.pte, m.vpn, m.nf);
  }
}

void Kernel::populate_huge_block(ThreadCtx& t, Process& p, const vm::Vma& vma,
                                 vm::Vpn vpn) {
  constexpr std::uint64_t kHugePages = (2ull << 20) >> mem::kPageShift;
  const vm::Vpn block = vpn & ~(kHugePages - 1);
  const topo::NodeId local = topo_.node_of_core(t.core);
  const vm::MemPolicy& eff =
      vma.policy.mode != vm::PolicyMode::kDefault ? vma.policy : p.task_policy;
  topo::NodeId target = eff.mode == vm::PolicyMode::kPreferredMany
                            ? preferred_many_target(eff.nodes, local)
                            : eff.target_node(vma.pgoff(block), local, topo_.num_nodes());
  if (target == topo::kInvalidNode) target = local;

  // One fault maps the whole block: one PTE-level update, one 2 MiB
  // zero-fill, one allocation episode (the huge frame).
  charge(t, cost_.page_alloc + cost_.pte_update, sim::CostKind::kAllocZero);
  const sim::Slot z = hw_.stream(t.clock, local, target, 2ull << 20,
                                 cost_.zero_rate_bytes_per_us, MemDir::kWrite);
  t.stats.add(sim::CostKind::kAllocZero, z.finish - t.clock);
  t.clock = z.finish;

  for (vm::Vpn v = block; v < block + kHugePages; ++v) {
    vm::Pte& pte = p.as.page_table().ensure(v);
    if (pte.present()) continue;
    const mem::FrameId f = alloc_user_frame(t, v, target);
    if (f == mem::kInvalidFrame) throw std::runtime_error{"simulated OOM (huge)"};
    if (std::byte* d = phys_.data(f)) std::memset(d, 0, mem::kPageSize);
    pte.frame = f;
    pte.flags = vm::Pte::kPresent | vm::Pte::kAccessed | vm::Pte::kHuge;
    pte.restore_hw(vma.prot);
    p.placement.inc(v, phys_.node_of(f));
  }
  ++kstats_.minor_faults;
}

topo::NodeId Kernel::resolve_replica(ThreadCtx& t, Process& p, vm::Pte& pte,
                                     vm::Vpn vpn, topo::NodeId reader,
                                     CopyBatch* copies) {
  const topo::NodeId home = phys_.node_of(pte.frame);
  if (reader == home) return home;
  const mem::FrameId existing = p.replicas.replica_on(vpn, reader);
  if (existing != mem::kInvalidFrame) return reader;

  // First read from this node: create the local replica (alloc + copy from
  // the home page; cheap bookkeeping, like a COW fault without the write).
  const mem::FrameId f = phys_.alloc_on(reader);
  if (f == mem::kInvalidFrame) return home;  // node full: keep reading remote
  charge(t, cost_.page_alloc + cost_.replica_control, sim::CostKind::kReplicaControl);
  if (copies != nullptr) {
    copies->add(home, reader, mem::kPageSize);
  } else {
    const sim::Slot c =
        hw_.copy(t.clock, home, reader, mem::kPageSize, cost_.kernel_copy_bytes_per_us);
    t.stats.add(sim::CostKind::kReplicaCopy, c.finish - t.clock);
    t.clock = c.finish;
  }
  if (std::byte* dst = phys_.data(f)) {
    if (const std::byte* src = phys_.data(pte.frame))
      std::memcpy(dst, src, mem::kPageSize);
  }
  p.replicas.add(vpn, reader, f);
  ++kstats_.replica_pages;
  trace(t, EventType::kReplicaCreate, vpn, 1, home, reader);
  return reader;
}

void Kernel::collapse_replicas(ThreadCtx& t, Process& p, vm::Pte& pte, vm::Vpn vpn,
                               topo::NodeId writer) {
  const std::vector<mem::FrameId> frames = p.replicas.take(vpn);
  for (mem::FrameId f : frames) {
    charge(t, cost_.page_free + cost_.replica_control, sim::CostKind::kReplicaControl);
    phys_.free(f);
  }
  // Home page moves to the writer if it is elsewhere (write locality) —
  // best-effort: under pressure the collapse still succeeds, just without
  // the locality gain.
  if (phys_.node_of(pte.frame) != writer) {
    migrate_page(t, p, pte, vpn, writer, cost_.nt_fault_control,
                 sim::CostKind::kReplicaControl, sim::CostKind::kReplicaCopy,
                 nullptr);
  }
  charge(t, shootdown_cost(t), sim::CostKind::kTlbShootdown);
  ++kstats_.tlb_shootdowns;
  ++kstats_.replica_collapses;
  trace(t, EventType::kReplicaCollapse, vpn, frames.size(), topo::kInvalidNode, writer);
  pte.clear(vm::Pte::kReplica);
  pte.set(vm::Pte::kHwWrite | vm::Pte::kHwRead);
}

void Kernel::deliver_sigsegv(ThreadCtx& t, Process& p, const SigInfo& info,
                             AccessResult& res) {
  if (!p.segv || t.signal_depth > 0) throw SegfaultError{info.fault_addr};
  if (injector_ != nullptr && injector_->delay_signal()) {
    // The signal is queued behind a context switch: delivery is late but
    // never lost (the faulting access stays blocked, so no re-fault storm).
    charge(t, cost_.signal_redelivery_delay, sim::CostKind::kSignalDelivery);
    ++kstats_.signals_delayed;
    trace(t, EventType::kSignalDelay, vm::vpn_of(info.fault_addr), 1);
  }
  charge(t, cost_.signal_delivery, sim::CostKind::kSignalDelivery);
  ++kstats_.signals_delivered;
  ++res.sigsegv_delivered;
  trace(t, EventType::kSigsegv, vm::vpn_of(info.fault_addr), 1);
  ++t.signal_depth;
  const sim::Time handler_begin = t.clock;
  p.segv(t, info);
  --t.signal_depth;
  emit_span(t, "sigsegv-handler", handler_begin, "kern");
  charge(t, cost_.sigreturn, sim::CostKind::kSignalDelivery);
}

bool Kernel::handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Prot want,
                          AccessResult& res, CopyBatch* copies) {
  const sim::Time begin = t.clock;
  const bool retry = do_handle_fault(t, p, addr, want, res, copies);
  if (h_fault_ != nullptr) h_fault_->record(t.clock - begin);
  if (!sinks_.empty())
    emit(trace_event(t, obs::TraceEvent::Kind::kSpan, begin, "kern", "fault")
             .add_arg("vpn", static_cast<std::int64_t>(vm::vpn_of(addr))));
  return retry;
}

bool Kernel::do_handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr,
                             vm::Prot want, AccessResult& res, CopyBatch* copies) {
  charge(t, cost_.pagefault_entry, sim::CostKind::kPageFault);

  vm::Vma* vma = p.as.find(addr);
  if (vma == nullptr || !prot_allows(vma->prot, want)) {
    ++kstats_.protection_faults;
    deliver_sigsegv(t, p, SigInfo{addr, want}, res);
    return true;  // retry: the handler may have repaired the mapping
  }

  vm::Pte& pte = p.as.page_table().ensure(vm::vpn_of(addr));
  if (!pte.present()) {
    if (vma->huge) {
      populate_huge_block(t, p, *vma, vm::vpn_of(addr));
    } else {
      populate_page(t, p, *vma, vm::vpn_of(addr), pte);
    }
    ++res.minor_faults;
    return false;
  }

  if (pte.flags & vm::Pte::kReplica) {
    charge(t, cost_.pte_update, sim::CostKind::kReplicaControl);
    if (prot_allows(want, vm::Prot::kWrite)) {
      collapse_replicas(t, p, pte, vm::vpn_of(addr), topo_.node_of_core(t.core));
    } else {
      // First read after arming: restore the read bit; per-node replicas are
      // materialized lazily by the access fast path.
      resolve_replica(t, p, pte, vm::vpn_of(addr), topo_.node_of_core(t.core), copies);
      pte.set(vm::Pte::kHwRead);
    }
    return false;
  }

  if (pte.flags & vm::Pte::kTxn) {
    // Write fault on a page mid-transaction: drop the protection and let
    // the writer proceed immediately — it never waits for the migration.
    // The writer's access then bumps the write generation, so the verify
    // step sees the page dirty and loops through the retry path.
    charge(t, cost_.pte_update + cost_.tlb_flush_local, sim::CostKind::kPageFault);
    pte.clear(vm::Pte::kTxn);
    pte.restore_hw(vma->prot);
    return false;
  }

  if (pte.next_touch()) {
    ++kstats_.nexttouch_faults;
    const topo::NodeId local = topo_.node_of_core(t.core);
    if (phys_.node_of(pte.frame) != local) {
      const topo::NodeId was = phys_.node_of(pte.frame);
      if (migrate_page(t, p, pte, vm::vpn_of(addr), local, cost_.nt_fault_control,
                       sim::CostKind::kNextTouchControl,
                       sim::CostKind::kNextTouchCopy,
                       copies) == MigrateResult::kOk) {
        ++res.nexttouch_migrations;
        ++kstats_.pages_migrated_nexttouch;
        trace(t, EventType::kNextTouchMigrate, vm::vpn_of(addr), 1, was, local);
      } else {
        // Degraded next-touch: the local node cannot take the page (ENOMEM
        // or copy failure). Map it where it is — the touch must never
        // crash; only the locality optimization is lost.
        ++kstats_.nexttouch_degraded;
        trace(t, EventType::kNextTouchDegraded, vm::vpn_of(addr), 1, was, local);
      }
    } else {
      // Already local: just rearm the permissions.
      charge(t, cost_.pte_update + cost_.tlb_flush_local,
             sim::CostKind::kNextTouchControl);
      ++res.nexttouch_hits_local;
    }
    pte.clear(vm::Pte::kNextTouch);
    pte.set(vm::Pte::kAccessed);
    pte.restore_hw(vma->prot);
    if (cfg_.nt_async_window > 0)
      nt_migrate_ahead(t, p, *vma, vm::vpn_of(addr), local);
    return false;
  }

  if (pte.numa_hint() && cfg_.numa_balancing.enabled) {
    // NUMA hint fault (do_numa_page): the scan clock unmapped this page so
    // we learn who touches it. Records fault stats, rearms the PTE, and may
    // queue a confirmed remote page for promotion.
    numab_hint_fault(t, p, *vma, pte, vm::vpn_of(addr));
    return false;
  }

  // Present, VMA permits, but hardware bits are narrower (e.g. after an
  // mprotect widening): re-derive them from the VMA.
  charge(t, cost_.pte_update + cost_.tlb_flush_local, sim::CostKind::kPageFault);
  pte.restore_hw(vma->prot);
  return false;
}

template <typename PageFn, typename FaultFn>
void Kernel::walk_rows(ThreadCtx& t, Process& p, vm::Vaddr base,
                       std::uint64_t rows, std::uint64_t row_bytes,
                       std::uint64_t stride, vm::Prot want,
                       topo::NodeId core_node, AccessResult& res,
                       CopyBatch& copies, PageFn&& on_page,
                       FaultFn&& before_fault) {
  constexpr unsigned kBits = vm::PageTable::kChunkBits;
  constexpr vm::Vpn kIndexMask = vm::PageTable::kChunkPages - 1;
  vm::PageTable& pt = p.as.page_table();
  const bool writing = prot_allows(want, vm::Prot::kWrite);
  // The held chunk: its key and its PTEs. Chunks are arena-backed and never
  // move, so the pointer stays good across rows and faults.
  std::uint64_t key = ~0ull;
  vm::Pte* chunk = nullptr;
  std::uint64_t r = 0;
  vm::Vaddr addr = base;
  vm::Vpn vpn = vm::vpn_of(addr);
  vm::Vpn vpn_end = vm::vpn_of(addr + row_bytes - 1) + 1;
  std::uint64_t pages = 0;
  // Reports page `vpn` and steps to the next page, or row; false when the
  // last row is done.
  auto report = [&](topo::NodeId node) {
    const vm::Vaddr page_start = vm::addr_of(vpn);
    on_page(node, std::min(addr + row_bytes, page_start + mem::kPageSize) -
                      std::max(addr, page_start));
    ++pages;
    if (++vpn < vpn_end) return true;
    if (++r == rows) return false;
    addr += stride;
    vpn = vm::vpn_of(addr);
    vpn_end = vm::vpn_of(addr + row_bytes - 1) + 1;
    return true;
  };
  for (;;) {
    // Fast path, free of calls so the walk state stays in registers: pages
    // of the held chunk that need no fault and no replica resolution.
    for (;;) {
      if ((vpn >> kBits) != key) break;
      vm::Pte* pte = chunk + (vpn & kIndexMask);
      if (!pte->hw_allows(want)) break;
      if (writing) {
        pte->set(vm::Pte::kDirty);
        ++pte->write_gen;
      } else if (pte->flags & vm::Pte::kReplica) {
        break;
      }
      if (!report(phys_.node_of(pte->frame))) {
        res.pages += pages;
        return;
      }
    }
    // Slow path for page `vpn`: enter its chunk (one table lookup per chunk
    // entered, and again after each fault, which may create the chunk) and
    // fault the page in. The fast path then takes the page, unless it is a
    // replica to read.
    key = vpn >> kBits;
    chunk = pt.chunk_ptes(vpn);
    vm::Pte* pte = chunk != nullptr ? chunk + (vpn & kIndexMask) : nullptr;
    unsigned retries = 0;
    while (pte == nullptr || !pte->hw_allows(want)) {
      const vm::Vaddr fault_addr = std::max(addr, vm::addr_of(vpn));
      before_fault();
      if (++retries > kMaxFaultRetries) throw SegfaultError{fault_addr};
      handle_fault(t, p, fault_addr, want, res, &copies);
      chunk = pt.chunk_ptes(vpn);
      pte = chunk != nullptr ? chunk + (vpn & kIndexMask) : nullptr;
    }
    if (writing || !(pte->flags & vm::Pte::kReplica)) continue;
    if (!report(resolve_replica(t, p, *pte, vpn, core_node, &copies))) {
      res.pages += pages;
      return;
    }
  }
}

AccessResult Kernel::access(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                            vm::Prot want, double stream_rate_bytes_per_us) {
  AccessResult res;
  if (len == 0) return res;
  Process& p = proc(t.pid);
  const topo::NodeId core_node = topo_.node_of_core(t.core);
  numab_tick(t, p);
  const sim::Time entry = t.clock;
  CopyBatch copies;
  const vm::Vaddr end = addr + len;

  // Contiguous same-node runs are charged as one stream.
  const MemDir dir =
      prot_allows(want, vm::Prot::kWrite) ? MemDir::kWrite : MemDir::kRead;
  topo::NodeId run_node = topo::kInvalidNode;
  std::uint64_t run_bytes = 0;
  auto flush_run = [&] {
    if (run_bytes == 0 || stream_rate_bytes_per_us <= 0.0) {
      run_bytes = 0;
      return;
    }
    const sim::Slot s = hw_.stream(t.clock, core_node, run_node, run_bytes,
                                   stream_rate_bytes_per_us, dir);
    const sim::Time lat = topo_.access_latency(core_node, run_node);
    t.stats.add(sim::CostKind::kMemAccess, s.finish + lat - t.clock);
    t.clock = s.finish + lat;
    run_bytes = 0;
  };
  walk_rows(
      t, p, addr, 1, len, len, want, core_node, res, copies,
      [&](topo::NodeId node, std::uint64_t bytes) {
        if (node != run_node) flush_run();
        run_node = node;
        run_bytes += bytes;
      },
      flush_run);
  flush_run();
  flush_copy_batch(t, copies, sim::CostKind::kNextTouchCopy);
  serialize_migration(t, p, addr, end, entry, res.nexttouch_migrations,
                      migrate_serial_share({cost_.nt_serial_per_page,
                                            cost_.nt_range_serial_per_page}));
  if (!p.numab.pending.empty()) numab_flush_promotions(t, p);
  return res;
}

void Kernel::charge_stream(ThreadCtx& t, topo::NodeId mem_node,
                           std::uint64_t bytes, double rate, MemDir dir) {
  const topo::NodeId core_node = topo_.node_of_core(t.core);
  const sim::Slot s = hw_.stream(t.clock, core_node, mem_node, bytes, rate, dir);
  const sim::Time lat = topo_.access_latency(core_node, mem_node);
  t.stats.add(sim::CostKind::kMemAccess, s.finish + lat - t.clock);
  t.clock = s.finish + lat;
}

AccessResult Kernel::access_strided(ThreadCtx& t, vm::Vaddr base,
                                    std::uint64_t rows, std::uint64_t row_bytes,
                                    std::uint64_t stride_bytes, vm::Prot want,
                                    double stream_rate_bytes_per_us,
                                    double traffic_scale,
                                    std::span<std::uint64_t> bytes_by_node) {
  AccessResult res;
  const unsigned nodes = topo_.num_nodes();
  if (!bytes_by_node.empty()) {
    if (bytes_by_node.size() < nodes)
      throw std::invalid_argument{
          "access_strided: bytes_by_node has fewer entries than nodes"};
    std::fill_n(bytes_by_node.begin(), nodes, std::uint64_t{0});
  }
  if (rows == 0 || row_bytes == 0) return res;
  Process& p = proc(t.pid);
  const topo::NodeId core_node = topo_.node_of_core(t.core);
  numab_tick(t, p);
  const sim::Time entry = t.clock;
  CopyBatch copies;

  // Per-node byte buckets, charged in bulk at the end: the caller's, or
  // call-local ones when it wants none.
  std::array<std::uint64_t, topo::kMaxNodes> local{};
  std::uint64_t* bytes_from =
      bytes_by_node.empty() ? local.data() : bytes_by_node.data();
  walk_rows(
      t, p, base, rows, row_bytes, stride_bytes, want, core_node, res, copies,
      [&](topo::NodeId node, std::uint64_t bytes) { bytes_from[node] += bytes; },
      [] {});

  if (stream_rate_bytes_per_us > 0.0) {
    for (topo::NodeId n = 0; n < nodes; ++n) {
      if (bytes_from[n] == 0) continue;
      const auto scaled = static_cast<std::uint64_t>(
          static_cast<double>(bytes_from[n]) * traffic_scale + 0.5);
      charge_stream(t, n, scaled, stream_rate_bytes_per_us,
                    prot_allows(want, vm::Prot::kWrite) ? MemDir::kWrite
                                                        : MemDir::kRead);
    }
  }
  flush_copy_batch(t, copies, sim::CostKind::kNextTouchCopy);
  serialize_migration(t, p, base, base + (rows - 1) * stride_bytes + row_bytes,
                      entry, res.nexttouch_migrations,
                      migrate_serial_share({cost_.nt_serial_per_page,
                                            cost_.nt_range_serial_per_page}));
  if (!p.numab.pending.empty()) numab_flush_promotions(t, p);
  return res;
}

int Kernel::read_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<std::byte> out) {
  access(t, addr, out.size(), vm::Prot::kRead, cost_.core_stream_bytes_per_us);
  if (!peek(t.pid, addr, out) && phys_.backing() == mem::Backing::kMaterialized)
    return -kEFAULT;
  return 0;
}

int Kernel::write_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<const std::byte> in) {
  access(t, addr, in.size(), vm::Prot::kWrite, cost_.core_stream_bytes_per_us);
  if (!poke(t.pid, addr, in) && phys_.backing() == mem::Backing::kMaterialized)
    return -kEFAULT;
  return 0;
}

int Kernel::user_memcpy(ThreadCtx& t, vm::Vaddr dst, vm::Vaddr src,
                        std::uint64_t len) {
  if (len == 0) return 0;
  Process& p = proc(t.pid);
  if (!p.as.range_mapped(src, len) || !p.as.range_mapped(dst, len)) return -kEFAULT;

  // Fault both ranges in (no data-plane charge; the copy itself is charged
  // below at the SSE rate between the actual frame locations).
  charge(t, cost_.user_memcpy_base, sim::CostKind::kMemAccess);
  access(t, src, len, vm::Prot::kRead, 0.0);
  access(t, dst, len, vm::Prot::kWrite, 0.0);

  vm::PageTable& pt = p.as.page_table();
  const vm::Vaddr end = src + len;
  vm::Vpn svpn = vm::vpn_of(src);
  const vm::Vpn svpn_end = vm::vpn_of(end - 1) + 1;

  topo::NodeId run_from = topo::kInvalidNode;
  topo::NodeId run_to = topo::kInvalidNode;
  std::uint64_t run_bytes = 0;
  auto flush = [&] {
    if (run_bytes == 0) return;
    const sim::Slot s =
        hw_.copy(t.clock, run_from, run_to, run_bytes, cost_.user_copy_bytes_per_us);
    t.stats.add(sim::CostKind::kMemAccess, s.finish - t.clock);
    t.clock = s.finish;
    run_bytes = 0;
  };

  for (; svpn < svpn_end; ++svpn) {
    const vm::Vaddr page_start = vm::addr_of(svpn);
    const vm::Vaddr lo = std::max(src, page_start);
    const vm::Vaddr hi = std::min(end, page_start + mem::kPageSize);
    const vm::Vaddr doff = dst + (lo - src);

    const vm::Pte* spte = pt.find(svpn);
    const vm::Pte* dpte = pt.find(vm::vpn_of(doff));
    assert(spte != nullptr && dpte != nullptr);
    const topo::NodeId f = phys_.node_of(spte->frame);
    const topo::NodeId to = phys_.node_of(dpte->frame);
    if (f != run_from || to != run_to) flush();
    run_from = f;
    run_to = to;
    run_bytes += hi - lo;
  }
  flush();

  if (phys_.backing() == mem::Backing::kMaterialized) {
    std::vector<std::byte> tmp(len);
    if (!peek(t.pid, src, tmp)) return -kEFAULT;
    if (!poke(t.pid, dst, tmp)) return -kEFAULT;
  }
  return 0;
}

void Kernel::teardown_unmap(Pid pid, vm::Vaddr addr, std::uint64_t len) {
  if (len == 0) return;
  Process& p = proc(pid);
  release_pages(p, vm::vpn_of(addr), vm::vpn_of(vm::page_align_up(addr + len)));
  p.as.unmap(addr, len);
}

std::uint64_t Kernel::release_pages(Process& p, vm::Vpn first, vm::Vpn last) {
  std::uint64_t released = 0;
  p.as.page_table().for_each_run(first, last, [&](vm::PageRun run) {
    vm::Vpn vpn = run.first;
    for (vm::Pte& pte : run.ptes) {
      const vm::Vpn v = vpn++;
      if (!pte.present()) continue;
      for (mem::FrameId f : p.replicas.take(v)) phys_.free(f);
      p.placement.dec(v, phys_.node_of(pte.frame));
      phys_.free(pte.frame);
      pte = vm::Pte{};
      ++released;
    }
  });
  return released;
}

topo::NodeId Kernel::page_node(Pid pid, vm::Vaddr addr) const {
  const vm::Pte* pte = proc(pid).as.page_table().find(vm::vpn_of(addr));
  if (pte == nullptr || !pte->present()) return topo::kInvalidNode;
  return phys_.node_of(pte->frame);
}

bool Kernel::peek(Pid pid, vm::Vaddr addr, std::span<std::byte> out) const {
  const Process& p = proc(pid);
  std::uint64_t done = 0;
  while (done < out.size()) {
    const vm::Vaddr a = addr + done;
    const vm::Pte* pte = p.as.page_table().find(vm::vpn_of(a));
    if (pte == nullptr || !pte->present()) return false;
    const std::byte* data = phys_.data(pte->frame);
    if (data == nullptr) return false;
    const std::uint64_t off = a & (mem::kPageSize - 1);
    const std::uint64_t n = std::min<std::uint64_t>(mem::kPageSize - off,
                                                    out.size() - done);
    std::memcpy(out.data() + done, data + off, n);
    done += n;
  }
  return true;
}

bool Kernel::poke(Pid pid, vm::Vaddr addr, std::span<const std::byte> in) {
  Process& p = proc(pid);
  std::uint64_t done = 0;
  while (done < in.size()) {
    const vm::Vaddr a = addr + done;
    vm::Pte* pte = p.as.page_table().find(vm::vpn_of(a));
    if (pte == nullptr || !pte->present()) return false;
    // Timing-free, but still a write: the transactional migrator's dirty
    // check must see it (tests poke pages mid-transaction).
    ++pte->write_gen;
    std::byte* data = phys_.data(pte->frame);
    if (data == nullptr) return false;
    const std::uint64_t off = a & (mem::kPageSize - 1);
    const std::uint64_t n = std::min<std::uint64_t>(mem::kPageSize - off,
                                                    in.size() - done);
    std::memcpy(data + off, in.data() + done, n);
    done += n;
  }
  return true;
}

std::uint64_t Kernel::pages_on_node(Pid pid, vm::Vaddr addr, std::uint64_t len,
                                    topo::NodeId node) const {
  const Process& p = proc(pid);
  std::uint64_t count = 0;
  const vm::Vpn vbegin = vm::vpn_of(addr);
  const vm::Vpn vend = vm::vpn_of(addr + len - 1) + 1;
  auto scan = [&](vm::Vpn a, vm::Vpn b) {
    p.as.page_table().for_each_run(a, b, [&](vm::ConstPageRun run) {
      for (const vm::Pte& pte : run.ptes)
        if (pte.present() && phys_.node_of(pte.frame) == node) ++count;
    });
  };
  // Fully-covered chunks read one maintained counter each; only the partial
  // chunks at the range edges fall back to the per-PTE walk.
  constexpr vm::Vpn kC = vm::PageTable::kChunkPages;
  const vm::Vpn full_lo = (vbegin + kC - 1) & ~(kC - 1);
  const vm::Vpn full_hi = vend & ~(kC - 1);
  if (full_lo >= full_hi) {
    scan(vbegin, vend);
    return count;
  }
  scan(vbegin, full_lo);
  for (std::uint64_t key = full_lo >> vm::PageTable::kChunkBits;
       key < (full_hi >> vm::PageTable::kChunkBits); ++key)
    count += p.placement.chunk_count(key, node);
  scan(full_hi, vend);
  return count;
}

void Kernel::validate(Pid pid) const {
  const Process& p = proc(pid);
  std::uint64_t referenced = 0;
  // One bit per frame id; claim() runs only on live frames, which are all
  // below the limit.
  std::vector<bool> seen(phys_.frame_id_limit());
  auto claim = [&seen](mem::FrameId f, const char* what) {
    if (seen[f])
      throw std::logic_error{std::string{"validate: frame double-mapped ("} +
                             what + ")"};
    seen[f] = true;
  };
  p.as.for_each([&](const vm::Vma& vma) {
    auto check_run = [&](vm::ConstPageRun run) {
      vm::Vpn vpn = run.first;
      for (const vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present()) continue;
        ++referenced;
        if (!phys_.is_live(pte.frame))
          throw std::logic_error{"validate: present PTE references a dead frame"};
        claim(pte.frame, "pte");
        if (pte.next_touch() && pte.hw_allows(vm::Prot::kRead))
          throw std::logic_error{"validate: next-touch PTE with live hw read bit"};
        if (pte.numa_hint() && pte.hw_allows(vm::Prot::kRead))
          throw std::logic_error{"validate: numa-hint PTE with live hw read bit"};
        if (pte.numa_hint() && pte.next_touch())
          throw std::logic_error{"validate: PTE both numa-hint and next-touch"};
        if ((pte.flags & vm::Pte::kTxn) && pte.hw_allows(vm::Prot::kWrite))
          throw std::logic_error{"validate: txn-protected PTE with live hw write bit"};
        const std::uint64_t nrep = p.replicas.replica_count(v);
        if (nrep != 0 && !(pte.flags & vm::Pte::kReplica))
          throw std::logic_error{"validate: replicas without kReplica flag"};
        referenced += nrep;
        for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
          const mem::FrameId rf = p.replicas.replica_on(v, n);
          if (rf == mem::kInvalidFrame) continue;
          if (!phys_.is_live(rf))
            throw std::logic_error{"validate: replica references a dead frame"};
          if (rf == pte.frame)
            throw std::logic_error{"validate: replica aliases the home frame"};
          if (phys_.node_of(rf) != n)
            throw std::logic_error{"validate: replica on the wrong node"};
          claim(rf, "replica");
        }
      }
    };
    p.as.page_table().for_each_run(vm::vpn_of(vma.start), vm::vpn_of(vma.end),
                                   check_run);
  });
  // Single-process kernels: everything allocated must be referenced — plus
  // any shadow frames held by in-flight transactional migrations, which by
  // design have no PTE pointing at them yet.
  const std::uint64_t shadow = phys_.total_shadow_frames();
  if (procs_.size() == 1 && referenced + shadow != phys_.total_used_frames())
    throw std::logic_error{"validate: frame leak or double-use (" +
                           std::to_string(referenced) + " referenced + " +
                           std::to_string(shadow) + " shadow vs " +
                           std::to_string(phys_.total_used_frames()) + " used)"};
  // Placement-count audit: recompute the per-chunk per-node rows from the
  // page table and compare against the maintained counters. A mismatch means
  // a map/remap/unmap site forgot to update Process::placement.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> fresh;
  p.as.for_each([&](const vm::Vma& vma) {
    p.as.page_table().for_each_run(
        vm::vpn_of(vma.start), vm::vpn_of(vma.end), [&](vm::ConstPageRun run) {
          vm::Vpn vpn = run.first;
          for (const vm::Pte& pte : run.ptes) {
            const vm::Vpn v = vpn++;
            if (!pte.present()) continue;
            std::vector<std::uint32_t>& row =
                fresh[v >> vm::PageTable::kChunkBits];
            if (row.empty()) row.assign(topo_.num_nodes(), 0);
            ++row[phys_.node_of(pte.frame)];
          }
        });
  });
  auto placement_mismatch = [](std::uint64_t key, topo::NodeId n,
                               std::uint32_t want, std::uint32_t got) {
    throw std::logic_error{"validate: placement count drift (chunk " +
                           std::to_string(key) + " node " + std::to_string(n) +
                           ": counted " + std::to_string(got) + ", page table " +
                           "has " + std::to_string(want) + ")"};
  };
  for (const auto& [key, row] : fresh)
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
      if (p.placement.chunk_count(key, n) != row[n])
        placement_mismatch(key, n, row[n], p.placement.chunk_count(key, n));
  p.placement.for_each_row([&](std::uint64_t key,
                               const std::vector<std::uint32_t>& row) {
    const auto it = fresh.find(key);
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      const std::uint32_t want = it == fresh.end() ? 0u : it->second[n];
      if (row[n] != want) placement_mismatch(key, n, want, row[n]);
    }
  });
  // Per-tier occupancy bookkeeping must agree with the per-node pools.
  phys_.audit_tiers();
}

void Kernel::validate(const ThreadCtx& t) const {
  validate(t.pid);
  if (t.numab_ts == nullptr) return;
  const auto& tasks = proc(t.pid).numab.tasks;
  const auto it = tasks.find(t.tid);
  if (it == tasks.end() || &it->second != t.numab_ts)
    throw std::logic_error{"validate: numab_ts is not the thread's own task entry"};
}

std::string Kernel::meminfo() const {
  std::ostringstream os;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const std::uint64_t cap = phys_.capacity_frames(n);
    const std::uint64_t used = phys_.used_frames(n);
    os << "node " << n << ": " << (cap * mem::kPageSize >> 20) << " MB total, "
       << (used * mem::kPageSize >> 10) << " KB used, "
       << ((cap - used) * mem::kPageSize >> 20) << " MB free";
    if (topo_.tiered()) os << " [" << topo::mem_tier_name(topo_.tier_of(n)) << "]";
    os << "\n";
  }
  return os.str();
}

std::string Kernel::numa_maps(Pid pid) const {
  const Process& p = proc(pid);
  std::ostringstream os;
  p.as.for_each([&](const vm::Vma& vma) {
    os << std::hex << vma.start << std::dec << " ";
    switch (vma.policy.mode) {
      case vm::PolicyMode::kDefault: os << "default"; break;
      case vm::PolicyMode::kBind: os << "bind"; break;
      case vm::PolicyMode::kInterleave: os << "interleave"; break;
      case vm::PolicyMode::kPreferred: os << "prefer"; break;
      case vm::PolicyMode::kPreferredMany: os << "prefer (many)"; break;
    }
    std::vector<std::uint64_t> per_node(topo_.num_nodes(), 0);
    std::uint64_t present = 0;
    p.as.page_table().for_each_run(
        vm::vpn_of(vma.start), vm::vpn_of(vma.end), [&](vm::ConstPageRun run) {
          for (const vm::Pte& pte : run.ptes) {
            if (!pte.present()) continue;
            ++present;
            ++per_node[phys_.node_of(pte.frame)];
          }
        });
    os << " anon=" << present;
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (per_node[n] != 0) os << " N" << n << "=" << per_node[n];
    }
    if (!vma.name.empty()) os << " [" << vma.name << "]";
    os << "\n";
  });
  return os.str();
}

}  // namespace numasim::kern
