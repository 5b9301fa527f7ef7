// lu_table1: two rows of the paper's Table 1 (threaded LU, 16 threads on
// the paper machine), each run with static interleave and with the
// per-iteration next-touch hook. The rows are the paper's, so the seed is
// unused. kern.access dominates host time here; next-touch adds
// fault-driven migration.
#include <cmath>
#include <memory>
#include <string>

#include "apps/lu.hpp"
#include "harness.hpp"
#include "reference.hpp"

namespace perfbench {
namespace {

/// Block operations of a right-looking blocked LU on an nb x nb block grid:
/// at the step with j trailing blocks per side, one diagonal factorization,
/// 2j panel solves and j*j trailing updates, i.e. (j+1)^2 in all.
std::uint64_t block_ops(std::uint64_t n, std::uint64_t bs) {
  const std::uint64_t nb = n / bs;
  return nb * (nb + 1) * (2 * nb + 1) / 6;
}

sim::Time run_case(Pass& p, std::uint64_t n, std::uint64_t bs,
                   bool next_touch) {
  const std::string what = "lu " + std::to_string(n) + "/" +
                           std::to_string(bs) +
                           (next_touch ? " next_touch" : " static");
  Pass::SubRun sub(p, what);
  auto m = p.setup("setup.machine",
                   [] { return std::make_unique<rt::Machine>(paper_machine()); });
  p.attach_sink(m->kernel());
  auto team = p.setup("setup.lu", [&] {
    return std::make_unique<rt::Team>(rt::Team::all_cores(*m));
  });
  auto lu = p.setup("setup.lu", [&] {
    apps::LuConfig cfg;
    cfg.n = n;
    cfg.bs = bs;
    cfg.next_touch = next_touch;
    return std::make_unique<apps::LuFactorization>(*m, *team, cfg);
  });
  {
    Tracer::Scope s(p.tracer(), "sim.run");
    m->run_main(0, [&](rt::Thread& th) -> sim::Task<void> {
      co_await lu->run(th);
    });
  }
  const apps::LuResult& r = lu->result();
  p.validate(m->kernel(), m->pid(), what);
  p.check([&](Checks& c) {
    c.expect(r.factor_time > 0, what + ": factor_time > 0");
    if (next_touch) {
      c.expect(r.madvise_calls > 0 && r.nexttouch_faults > 0 &&
                   r.nexttouch_migrations > 0,
               what + ": next-touch counts are non-zero");
    } else {
      c.expect(r.madvise_calls == 0 && r.nexttouch_faults == 0 &&
                   r.nexttouch_migrations == 0,
               what + ": next-touch counts are zero");
    }
  });
  p.add_machine(*m);
  p.count("apps.lu.madvise_calls", static_cast<double>(r.madvise_calls));
  p.count("apps.lu.nexttouch_faults", static_cast<double>(r.nexttouch_faults));
  p.count("apps.lu.nexttouch_migrations",
          static_cast<double>(r.nexttouch_migrations));
  p.add_ops(block_ops(n, bs));
  p.digest().mix(static_cast<std::uint64_t>(r.setup_end));
  p.digest().mix(static_cast<std::uint64_t>(r.factor_time));
  return r.factor_time;
}

}  // namespace

void run_lu_table1(Pass& p) {
  double gap_sum = 0;
  for (const reference::LuRow& row : reference::kLuRows) {
    const sim::Time stat = run_case(p, row.n, row.bs, false);
    const sim::Time nt = run_case(p, row.n, row.bs, true);
    const double imp =
        100.0 * (static_cast<double>(stat) / static_cast<double>(nt) - 1.0);
    gap_sum += std::fabs(imp - row.improvement_pct);
    p.output("lu.improvement_pct." + std::to_string(row.n) + "_" +
                 std::to_string(row.bs),
             imp);
  }
  p.output("paper_err_pct",
           gap_sum / static_cast<double>(std::size(reference::kLuRows)));
}

}  // namespace perfbench
