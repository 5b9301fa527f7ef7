// migrate_mech: the paper's migration mechanisms called directly on large
// populated buffers, ping-ponged across nodes for several rounds.
//
//   * patched sys_move_pages, sys_migrate_pages, sys_move_pages_ranged and
//     kernel next-touch (madvise, then one touch per page) as kern::Kernel
//     calls from a ThreadCtx on the source (or, for next-touch, target) node;
//   * lib::UserNextTouch (mprotect + SIGSEGV + move_pages);
//   * a 4-thread rt::Team takeover of a buffer, synchronous (move_pages) and
//     lazy (next-touch), the shape of the paper's Fig. 7;
//   * one synchronous takeover under MigrationMode::kTransactional.
//
// kern.migrate dominates host time here. Each round moves the whole buffer
// to one of the current node's ring neighbours, picked by the seed; keeping
// every move one hop long keeps the throughputs comparable with the
// paper's node 0 -> node 1 measurements.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "lib/user_next_touch.hpp"
#include "reference.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

/// Buffer of every mechanism: 128 MiB of 4 KiB pages, Fig. 7's largest
/// size and on every mechanism's throughput plateau. Host cost per call is
/// small, so the work is sized in rounds. A 1 GiB buffer moved 8 times
/// does the same page migrations, but its per-page kernel state spills out
/// of the host's private cache and its host time swung far more with the
/// other tenants of a shared host (see README.md, "Noise").
constexpr std::uint64_t kPages = 32768;
constexpr unsigned kRounds = 64;
constexpr std::uint64_t kTeamPages = kPages;
constexpr unsigned kTeamRounds = 8;
constexpr unsigned kTeamThreads = 4;

/// Seeded walk over the ring: every step goes to a one-hop neighbour.
class NodeWalk {
 public:
  NodeWalk(const topo::Topology& t, std::uint64_t seed) : t_(t), rng_(seed) {
    at_ = static_cast<topo::NodeId>(rng_.next() % t_.num_nodes());
  }
  topo::NodeId at() const { return at_; }
  topo::NodeId step() {
    std::vector<topo::NodeId> next;
    for (topo::NodeId n = 0; n < t_.num_nodes(); ++n)
      if (t_.hops(at_, n) == 1) next.push_back(n);
    at_ = next[rng_.next() % next.size()];
    return at_;
  }

 private:
  const topo::Topology& t_;
  sim::Rng rng_;
  topo::NodeId at_ = 0;
};

/// One direct-kernel sub-run: a fresh paper machine, one process, one
/// ThreadCtx per node (moving "to a node" means acting from that node's
/// context, clock-synchronized with the previous actor).
class Direct {
 public:
  Direct(Pass& p, const char* what, std::uint64_t stream)
      : p_(p), what_(what) {
    k_ = p.setup("setup.machine",
                 [] { return std::make_unique<kern::Kernel>(paper_machine()); });
    p.attach_sink(*k_);
    pid_ = p.setup("setup.machine", [&] { return k_->create_process(); });
    for (topo::NodeId n = 0; n < ctx_.size(); ++n) {
      ctx_[n].tid = n;
      ctx_[n].pid = pid_;
      ctx_[n].core = k_->topo().cores_of_node(n).front();
    }
    walk_ = std::make_unique<NodeWalk>(k_->topo(), mix_seed(p.seed(), stream));
    kern::ThreadCtx& c = on(walk_->at());
    buf_ = k_->sys_mmap(c, len(), vm::Prot::kReadWrite,
                        vm::MemPolicy::bind(topo::node_mask_of(walk_->at())),
                        what);
    Tracer::Scope s(p.tracer(), "kern.access");
    k_->access(c, buf_, len(), vm::Prot::kWrite, 3500.0);
    now_ = c.clock;
  }

  kern::Kernel& k() { return *k_; }
  kern::Pid pid() const { return pid_; }
  vm::Vaddr buf() const { return buf_; }
  static constexpr std::uint64_t len() { return kPages * mem::kPageSize; }

  /// The context on `node`, its clock advanced to the current instant.
  kern::ThreadCtx& on(topo::NodeId node) {
    kern::ThreadCtx& c = ctx_[node];
    c.clock = std::max(c.clock, now_);
    return c;
  }

  /// Run `rounds` migrations of the whole buffer; `move(from, to)` performs
  /// one and returns its simulated duration. Returns MB/s over all rounds.
  template <typename F>
  double rounds(unsigned n, F&& move) {
    sim::Time total = 0;
    for (unsigned r = 0; r < n; ++r) {
      const topo::NodeId from = walk_->at();
      const topo::NodeId to = walk_->step();
      const sim::Time dt = move(from, to);
      now_ += dt;
      total += dt;
      p_.expect_on_node(*k_, pid_, buf_, len(), to,
                        std::string(what_) + " round " + std::to_string(r));
      p_.add_ops(kPages);
      p_.digest().mix(to);
      p_.digest().mix(static_cast<std::uint64_t>(dt));
    }
    return sim::mb_per_second(len() * n, total);
  }

  /// Checks and counts at the end of the sub-run.
  void finish() {
    p_.validate(*k_, pid_, what_, ctx_);
    p_.add_kernel(*k_);
  }

 private:
  Pass& p_;
  const char* what_;
  std::unique_ptr<kern::Kernel> k_;
  kern::Pid pid_ = 0;
  std::array<kern::ThreadCtx, 4> ctx_{};
  std::unique_ptr<NodeWalk> walk_;
  vm::Vaddr buf_ = 0;
  sim::Time now_ = 0;
};

/// Touch one word per page of the buffer from `c`.
void touch_pages(kern::Kernel& k, kern::ThreadCtx& c, vm::Vaddr buf) {
  for (std::uint64_t i = 0; i < kPages; ++i)
    k.access(c, buf + i * mem::kPageSize, sizeof(std::uint64_t),
             vm::Prot::kReadWrite, 0.0);
}

double move_pages(Pass& p) {
  Pass::SubRun sub(p, "move_pages");
  Direct d(p, "move_pages", 1);
  std::vector<vm::Vaddr> pages(kPages);
  for (std::uint64_t i = 0; i < kPages; ++i)
    pages[i] = d.buf() + i * mem::kPageSize;
  std::vector<topo::NodeId> nodes(kPages);
  std::vector<int> status(kPages);
  const double mbs = d.rounds(kRounds, [&](topo::NodeId from, topo::NodeId to) {
    kern::ThreadCtx& c = d.on(from);
    const sim::Time t0 = c.clock;
    std::fill(nodes.begin(), nodes.end(), to);
    Tracer::Scope s(p.tracer(), "kern.move_pages");
    d.k().sys_move_pages(c, pages, nodes, status);
    return c.clock - t0;
  });
  d.finish();
  return mbs;
}

double migrate_pages(Pass& p) {
  Pass::SubRun sub(p, "migrate_pages");
  Direct d(p, "migrate_pages", 2);
  const double mbs = d.rounds(kRounds, [&](topo::NodeId from, topo::NodeId to) {
    kern::ThreadCtx& c = d.on(from);
    const sim::Time t0 = c.clock;
    Tracer::Scope s(p.tracer(), "kern.migrate_pages");
    d.k().sys_migrate_pages(c, d.pid(), topo::node_mask_of(from),
                            topo::node_mask_of(to));
    return c.clock - t0;
  });
  d.finish();
  return mbs;
}

double move_pages_ranged(Pass& p) {
  Pass::SubRun sub(p, "move_pages_ranged");
  Direct d(p, "move_pages_ranged", 3);
  const double mbs = d.rounds(kRounds, [&](topo::NodeId from, topo::NodeId to) {
    kern::ThreadCtx& c = d.on(from);
    const sim::Time t0 = c.clock;
    const kern::Kernel::MoveRange r{d.buf(), Direct::len(), to};
    Tracer::Scope s(p.tracer(), "kern.move_pages_ranged");
    d.k().sys_move_pages_ranged(c, std::span{&r, 1});
    return c.clock - t0;
  });
  d.finish();
  return mbs;
}

double kernel_next_touch(Pass& p) {
  Pass::SubRun sub(p, "kernel_next_touch");
  Direct d(p, "kernel_next_touch", 4);
  const double mbs = d.rounds(kRounds, [&](topo::NodeId, topo::NodeId to) {
    kern::ThreadCtx& c = d.on(to);
    const sim::Time t0 = c.clock;
    {
      Tracer::Scope s(p.tracer(), "kern.madvise");
      d.k().sys_madvise(c, d.buf(), Direct::len(),
                        kern::Advice::kMigrateOnNextTouch);
    }
    Tracer::Scope s(p.tracer(), "kern.access");
    touch_pages(d.k(), c, d.buf());
    return c.clock - t0;
  });
  d.finish();
  return mbs;
}

double user_next_touch(Pass& p) {
  Pass::SubRun sub(p, "user_next_touch");
  Direct d(p, "user_next_touch", 5);
  auto unt = p.setup("setup.machine", [&] {
    return std::make_unique<lib::UserNextTouch>(d.k(), d.pid());
  });
  const double mbs = d.rounds(kRounds, [&](topo::NodeId, topo::NodeId to) {
    kern::ThreadCtx& c = d.on(to);
    const sim::Time t0 = c.clock;
    Tracer::Scope s(p.tracer(), "lib.user_nt");
    unt->mark(c, d.buf(), Direct::len());
    touch_pages(d.k(), c, d.buf());
    return c.clock - t0;
  });
  // The arming step of user next-touch on its own: write-protect the whole
  // buffer and lift the protection again.
  {
    kern::ThreadCtx& c = d.on(0);
    Tracer::Scope s(p.tracer(), "kern.mprotect");
    d.k().sys_mprotect(c, d.buf(), Direct::len(), vm::Prot::kRead);
    d.k().sys_mprotect(c, d.buf(), Direct::len(), vm::Prot::kReadWrite);
    p.digest().mix(static_cast<std::uint64_t>(c.clock));
  }
  p.check([&](Checks& c) {
    c.expect(unt->stats().pages_moved == kPages * kRounds &&
                 unt->stats().pages_failed == 0,
             "user_next_touch: every armed page moved");
  });
  d.finish();
  return mbs;
}

/// Fig. 7 shape: a team of kTeamThreads on the destination node takes the
/// buffer over, each worker its contiguous chunk, synchronously
/// (move_pages) or lazily (next-touch). Returns MB/s over all rounds.
double team_takeover(Pass& p, const char* what, bool lazy,
                     kern::MigrationMode mode, unsigned rounds,
                     std::uint64_t stream) {
  Pass::SubRun sub(p, what);
  auto m = p.setup("setup.machine", [&] {
    kern::KernelConfig cfg = paper_machine();
    cfg.migration_mode = mode;
    return std::make_unique<rt::Machine>(cfg);
  });
  p.attach_sink(m->kernel());
  NodeWalk walk(m->topology(), mix_seed(p.seed(), stream));
  constexpr std::uint64_t kLen = kTeamPages * mem::kPageSize;
  constexpr std::uint64_t kChunk = kLen / kTeamThreads;
  sim::Time total = 0;
  {
    Tracer::Scope s(p.tracer(), "sim.run");
    const topo::CoreId home = m->topology().cores_of_node(walk.at()).front();
    m->run_main(home, [&](rt::Thread& th) -> sim::Task<void> {
      const vm::Vaddr buf = co_await th.mmap(
          kLen, vm::Prot::kReadWrite,
          vm::MemPolicy::bind(topo::node_mask_of(walk.at())));
      co_await th.touch(buf, kLen);
      for (unsigned r = 0; r < rounds; ++r) {
        const topo::NodeId to = walk.step();
        rt::Team team = rt::Team::node_cores(*m, to, kTeamThreads);
        rt::Team::WorkerFn worker = [&](unsigned tid,
                                        rt::Thread& w) -> sim::Task<void> {
          const vm::Vaddr lo = buf + tid * kChunk;
          if (lazy) {
            co_await w.madvise(lo, kChunk, kern::Advice::kMigrateOnNextTouch);
            co_await w.touch_pages_sparse(lo, kChunk);
          } else {
            co_await w.move_range(lo, kChunk, to);
          }
        };
        co_await team.parallel(th, std::move(worker));
        total += team.last_span();
        p.expect_on_node(m->kernel(), m->pid(), buf, kLen, to,
                         std::string(what) + " round " + std::to_string(r));
        p.add_ops(kTeamPages);
        p.digest().mix(to);
        p.digest().mix(static_cast<std::uint64_t>(team.last_span()));
      }
    });
  }
  p.validate(m->kernel(), m->pid(), what);
  p.add_machine(*m);
  return sim::mb_per_second(kLen * rounds, total);
}

}  // namespace

void run_migrate_mech(Pass& p) {
  struct Scored {
    const reference::Throughput& ref;
    double mbs;
  };
  const Scored scored[] = {
      {reference::kMovePages, move_pages(p)},
      {reference::kMigratePages, migrate_pages(p)},
      {reference::kKernelNextTouch, kernel_next_touch(p)},
      {reference::kUserNextTouch, user_next_touch(p)},
      {reference::kSync4,
       team_takeover(p, "sync_4t", false, kern::MigrationMode::kStopAndCopy,
                     kTeamRounds, 6)},
      {reference::kLazy4,
       team_takeover(p, "lazy_4t", true, kern::MigrationMode::kStopAndCopy,
                     kTeamRounds, 7)},
  };
  p.output("mbs.move_pages_ranged", move_pages_ranged(p));
  p.output("mbs.txn_4t", team_takeover(p, "txn_4t", false,
                                       kern::MigrationMode::kTransactional, 1, 8));
  p.check([&](Checks& c) {
    c.expect(p.counts().at("kern.txn.commits") > 0,
             "txn_4t: the transactional takeover committed pages");
  });

  double err = 0;
  for (const Scored& s : scored) {
    p.output(std::string("mbs.") + s.ref.name, s.mbs);
    err += 100.0 * std::abs(s.mbs - s.ref.mb_per_s) / s.ref.mb_per_s;
  }
  p.output("paper_err_pct", err / static_cast<double>(std::size(scored)));
}

}  // namespace perfbench
