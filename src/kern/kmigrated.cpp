// Kernel-side entry points of the kmigrated async migration engine: batch
// submission, execution on the daemon timelines, draining, and the
// next-touch migrate-ahead window.
#include <algorithm>

#include "kern/kernel.hpp"

namespace numasim::kern {

SyscallResult Kernel::sys_move_pages_async(ThreadCtx& t,
                                           std::span<const MoveRange> ranges) {
  const sim::Time begin = t.clock;
  const SyscallResult r = do_move_pages_async(t, ranges);
  emit_span(t, "sys_move_pages_async", begin, "kern");
  return r;
}

SyscallResult Kernel::do_move_pages_async(ThreadCtx& t,
                                          std::span<const MoveRange> ranges) {
  Process& p = proc(t.pid);
  charge(t, cost_.syscall_entry, sim::CostKind::kSyscallEntry);
  // Validate every range up front (the whole call fails before anything is
  // queued, matching sys_move_pages_ranged).
  for (const MoveRange& r : ranges) {
    if (r.len == 0) return -kEINVAL;
    if (r.node >= topo_.num_nodes()) return -kEINVAL;
    if (!p.as.range_mapped(r.addr, r.len)) return -kEFAULT;
  }
  long queued = 0;
  for (const MoveRange& r : ranges) {
    charge(t, cost_.kmigrated_submit, sim::CostKind::kMovePagesControl);
    queued += static_cast<long>(
        submit_kmigrated_batch(t, p, r.addr, r.len, r.node, t.clock));
  }
  return queued;
}

std::uint64_t Kernel::submit_kmigrated_batch(ThreadCtx& t, Process& p,
                                             vm::Vaddr addr, std::uint64_t len,
                                             topo::NodeId node,
                                             sim::Time submit,
                                             bool defer_on_degrade) {
  if (kmig_now_ < submit) kmig_now_ = submit;
  const std::uint64_t npages =
      vm::vpn_of(vm::page_align_up(addr + len)) - vm::vpn_of(addr);
  if (injector_ != nullptr && injector_->drop_kmigrated()) {
    // The batch is lost on the queue: pages stay where they are; the caller
    // only ever learns through the counters/events (fire-and-forget).
    ++kstats_.kmigrated_batches_dropped;
    trace(t, EventType::kKmigratedDrop, vm::vpn_of(addr), npages,
          topo::kInvalidNode, node);
    return 0;
  }
  trace(t, EventType::kKmigratedSubmit, vm::vpn_of(addr), npages,
        topo::kInvalidNode, node);

  // The daemon wakes after the IPI latency and no earlier than its previous
  // batch finished.
  const sim::Time start =
      std::max(submit + cost_.kmigrated_wakeup, kmigrated_.node_free_at(node));

  // Page-table mutations are applied eagerly (the simulation has no host
  // concurrency to race with), but every nanosecond is charged to the
  // daemon's slot — the submitter's clock never moves here.
  sim::Time service = cost_.kmigrated_batch_base;
  sim::Time copy_cursor = start;
  std::uint64_t moved = 0;
  // Daemon execution context for the transactional engine: TxnMigrator bills
  // a ThreadCtx, so the daemon gets a scratch one whose clock is the batch
  // slot. Its stats are discarded — nothing here bills the submitter.
  const bool txn = cfg_.migration_mode == MigrationMode::kTransactional;
  ThreadCtx dt;
  dt.tid = t.tid;
  dt.pid = p.pid;
  dt.core = t.core;
  dt.clock = start + cost_.kmigrated_batch_base;
  const vm::Vpn vend = vm::vpn_of(vm::page_align_up(addr + len));
  // Run-batched walk: one chunk lookup per 512 pages; pages without an
  // established chunk cannot be present and are skipped wholesale. The VMA
  // of resolved next-touch pages is cached across iterations — a batch
  // rarely crosses a mapping.
  const vm::Vma* nt_vma = nullptr;
  auto batch_run = [&](vm::PageRun run) {
    vm::Vpn vpn = run.first - 1;
    for (vm::Pte& run_pte : run.ptes) {
      ++vpn;
      vm::Pte* pte = &run_pte;
      if (!pte->present() || (pte->flags & vm::Pte::kHuge))
        continue;
      const bool was_nt = pte->next_touch();
      const topo::NodeId from = phys_.node_of(pte->frame);
      if (from != node && txn) {
        if (do_migrate_page_txn(dt, p, vpn, node,
                                sim::CostKind::kMovePagesControl,
                                sim::CostKind::kMovePagesCopy) ==
            TxnResult::kCommitted) {
          ++moved;
          ++kstats_.kmigrated_pages;
        } else {
          ++kstats_.txn_degraded;
          trace(dt, EventType::kTxnDegraded, vpn, 1, from, node);
          if (defer_on_degrade) continue;  // left in place for a later pass
          switch (do_migrate_page(dt, p, *pte, vpn, node,
                                  cost_.move_pages_range_page_control,
                                  sim::CostKind::kMovePagesControl,
                                  sim::CostKind::kMovePagesCopy, nullptr)) {
            case MigrateResult::kOk:
              ++moved;
              ++kstats_.kmigrated_pages;
              break;
            case MigrateResult::kNoMem:
            case MigrateResult::kCopyFail:
              // do_migrate_page already counted migrations_failed + traced.
              ++kstats_.kmigrated_pages_failed;
              break;
          }
        }
      } else if (from != node) {
        mem::FrameId nf = alloc_migration_frame(node);
        if (nf == mem::kInvalidFrame && cfg_.tiers.enabled && cfg_.tiers.demotion) {
          // Direct demotion (tiering): the daemon evicts pages of the full
          // destination node down-tier and retries once, so an up-tier batch
          // degrades to per-page ENOMEM only when every lower tier is full
          // too. Demotion work bills the daemon (dt / service), never the
          // submitter.
          if (tier_demote(dt, p, node, cfg_.tiers.demote_batch_pages,
                          /*require_idle=*/false,
                          sim::CostKind::kMovePagesControl) > 0) {
            service += cost_.demote_direct_stall;
            nf = alloc_migration_frame(node);
          }
        }
        if (nf == mem::kInvalidFrame) {
          // Per-page ENOMEM degrades just this page; the original mapping is
          // untouched, so there is nothing to roll back.
          ++kstats_.kmigrated_pages_failed;
          ++kstats_.migrations_failed;
          trace(t, EventType::kMigrateFail, vpn, 1, from, node);
        } else {
          service += cost_.move_pages_range_page_control;
          const sim::Slot c = hw_.copy(copy_cursor, from, node, mem::kPageSize,
                                       cost_.kernel_copy_bytes_per_us);
          copy_cursor = c.finish;
          remap_page(p, *pte, vpn, nf);
          ++moved;
          ++kstats_.kmigrated_pages;
        }
      }
      if (was_nt) {
        // The daemon resolves the pending next-touch mark so the eventual
        // touch is an ordinary access, not a fault.
        if (nt_vma == nullptr || !nt_vma->contains(vm::addr_of(vpn)))
          nt_vma = p.as.find(vm::addr_of(vpn));
        if (nt_vma != nullptr) {
          pte->clear(vm::Pte::kNextTouch);
          pte->set(vm::Pte::kAccessed);
          pte->restore_hw(nt_vma->prot);
        }
      }
    }
  };
  p.as.page_table().for_each_run(vm::vpn_of(addr), vend, batch_run);
  if (moved > 0) {
    // One coalesced shootdown round for the whole batch. (Each transactional
    // commit only flushed locally; the remote round lands here.)
    const sim::Time round = cost_.tlb_shootdown_round(topo_.num_cores(), moved);
    if (txn) dt.clock += round;
    else service += round;
    ++kstats_.tlb_shootdowns;
  }

  const sim::Time busy_until =
      txn ? dt.clock : std::max(start + service, copy_cursor);
  const sim::Slot slot = kmigrated_.submit(node, start, busy_until - start);
  ++kstats_.kmigrated_batches;
  if (h_kmigrated_batch_ != nullptr)
    h_kmigrated_batch_->record(slot.finish - submit);
  // Stamped at completion, on the daemon's timeline.
  if (!sinks_.empty())
    emit(trace_event(t, obs::TraceEvent::Kind::kInstant, slot.finish, "kern",
                     event_type_name(EventType::kKmigratedComplete))
             .add_arg("vpn", static_cast<std::int64_t>(vm::vpn_of(addr)))
             .add_arg("pages", static_cast<std::int64_t>(moved))
             .add_arg("from", -1)
             .add_arg("to", node));
  return moved;
}

void Kernel::kmigrated_drain(ThreadCtx& t) {
  if (kmig_now_ < t.clock) kmig_now_ = t.clock;
  const sim::Time done = kmigrated_.drained_at();
  if (done > t.clock) {
    t.stats.add(sim::CostKind::kLockWait, done - t.clock);
    note_lock_wait(done - t.clock);
    t.clock = done;
    kmig_now_ = done;
  }
}

void Kernel::nt_migrate_ahead(ThreadCtx& t, Process& p, const vm::Vma& vma,
                              vm::Vpn fault_vpn, topo::NodeId node) {
  // Contiguous run of still-marked next-touch pages right behind the fault,
  // clipped to the VMA and the configured window.
  const vm::Vpn vma_end = vm::vpn_of(vma.end);
  const vm::Vpn first = fault_vpn + 1;
  const vm::Vpn limit = std::min(vma_end, first + cfg_.nt_async_window);
  vm::Vpn last = first;
  auto window_run = [&](vm::ConstPageRun run) {
    if (run.first != last) return false;  // absent chunk: the run ends here
    for (const vm::Pte& pte : run.ptes) {
      if (!pte.present() || !pte.next_touch()) return false;
      ++last;
    }
    return true;
  };
  p.as.page_table().for_each_run(first, limit, window_run);
  if (last == first) return;
  charge(t, cost_.kmigrated_submit, sim::CostKind::kNextTouchControl);
  submit_kmigrated_batch(t, p, vm::addr_of(first),
                         (last - first) * mem::kPageSize, node, t.clock);
}

}  // namespace numasim::kern
