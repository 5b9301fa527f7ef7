// Serving mixes: the multi-tenant KV latency-SLO policy showdown.
//
// The repo's first benchmark scored on a latency SLO rather than end-to-end
// runtime ("Revisiting Page Migration for Main-Memory Database Systems"
// argues tail request latency is where migration helps or hurts a serving
// system). Four tenants, each pinned to the cores of its own node with two
// client threads, serve zipfian get/put/scan traffic against a 16-shard KV
// store (apps/kvstore). The traffic layer rotates every tenant's key range
// one tenant over at each phase boundary, so the hot shard — ~80 % of a
// tenant's accesses — lands on a remote node after each shift and page
// placement must chase it.
//
// Placement policies compared (--placement to restrict):
//   first_touch — phase-0 warmup places the store tenant-local; after the
//                 shift every hot access is remote forever (the baseline).
//   interleave  — round-robin pages: uniformly mediocre, shift-immune.
//   move_pages  — one corrective action: at the *first* shift each tenant
//                 synchronously move_pages's its new hot shard home (the
//                 paper's explicit-migration model). The second shift is
//                 theirs to lose: the hot shard ends ~100 % remote.
//   autonuma    — NUMA-balancing hint faults re-converge after every shift;
//                 promotions ride the async kmigrated daemons.
//   tiering     — tiered topology (2 fast + 2 DRAM nodes, small fast tier):
//                 tier-preferred placement plus hint-fault promotion keeps
//                 the hot shard in the fast tier under capacity pressure.
//
// Per-request simulated latency is histogrammed per phase over a steady
// window (the first quarter of each phase is warmup: it absorbs first-touch
// faults, the move_pages spike, and AutoNUMA convergence, so the SLO
// columns compare steady serving, which is what an SLO means). Throughput
// spans the whole phase. hot_remote_pct is the fraction of each tenant's
// current hot shard resident off the tenant's node at phase end.
//
// All the machine-wide knobs compose: --lock-model, --migration-mode,
// --tier-spec (which replaces the per-policy topology).
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "apps/kvstore.hpp"
#include "apps/traffic.hpp"
#include "common.hpp"
#include "sim/barrier.hpp"

using namespace numasim;

namespace {

enum class Policy : std::uint8_t {
  kFirstTouch,
  kInterleave,
  kMovePages,
  kAutonuma,
  kTiering,
};

constexpr bench::EnumFlagOption<Policy> kPlacements[] = {
    {"first_touch", Policy::kFirstTouch},
    {"interleave", Policy::kInterleave},
    {"move_pages", Policy::kMovePages},
    {"autonuma", Policy::kAutonuma},
    {"tiering", Policy::kTiering},
};

constexpr bench::EnumFlagOption<apps::Mix> kMixes[] = {
    {"read_heavy", apps::Mix::kReadHeavy},
    {"write_heavy", apps::Mix::kWriteHeavy},
    {"scan_mixed", apps::Mix::kScanMixed},
};

const char* policy_name(Policy p) {
  for (const auto& opt : kPlacements)
    if (opt.value == p) return opt.name;
  return "?";
}

// Workload shape. The store is 16 shards x 512 keys x 1 KiB = 8 MiB; each
// tenant's range is 4 shards whose first shard carries ~80 % of the
// tenant's zipfian mass (theta 0.99 over 2048 keys) — the hot shard.
constexpr unsigned kTenants = 4;
constexpr unsigned kClientsPerTenant = 2;
constexpr unsigned kPhases = 3;
constexpr std::uint64_t kShards = 16;
constexpr std::uint64_t kKeysPerShard = 512;
constexpr std::uint64_t kValueBytes = 1024;
constexpr std::uint64_t kShardsPerTenant = kShards / kTenants;
constexpr double kTheta = 0.99;
constexpr std::uint64_t kSeed = 0x5e39'11d5'0a1b'77c3ull;
/// First 1/kWarmupDiv of each phase's requests excluded from the latency
/// histogram (steady-window SLO).
constexpr std::uint64_t kWarmupDiv = 4;

/// Tiered machine for the tiering policy: four sockets, two with a small
/// fast tier (3 MB each — together 6 MB against the 8 MB store, so the
/// tier is always over-subscribed), two plain DRAM. Same core layout as
/// quad_opteron so tenant pinning is identical.
constexpr const char* kTierTopo =
    "nodes=4 cores=4 tiers=fast:2,dram:2 fast_mb=3";

std::uint64_t migrated_pages(const kern::KernelStats& s) {
  return s.pages_migrated_move + s.pages_migrated_process +
         s.pages_migrated_nexttouch + s.kmigrated_pages;
}

/// Machine config for one policy run. AutoNUMA's scan clock is tuned to the
/// phase scale: one full-address-space tag cycle ~1.2 ms (4 windows of 512
/// pages every 300 us), single-reference promotion — the hot shard
/// re-converges within the warmup window of a phase while the steady
/// hint-fault tax stays in the tail's noise. Tiering slows the clock 5x and
/// demands two references: its fast tier is over-subscribed, so promotion
/// must be conservative or the tier thrashes (observed: ~10x the page churn
/// and >10x the p99 with the AutoNUMA clock).
kern::KernelConfig config_for(Policy p) {
  const topo::Topology t = p == Policy::kTiering
                               ? topo::Topology::from_spec(kTierTopo)
                               : topo::Topology::quad_opteron();
  kern::KernelConfig cfg = bench::phantom_kernel_config(t);
  if (p == Policy::kAutonuma || p == Policy::kTiering) {
    kern::NumaBalancingConfig& nb = cfg.numa_balancing;
    nb.enabled = true;
    nb.scan_period = p == Policy::kTiering ? sim::microseconds(1500)
                                           : sim::microseconds(300);
    nb.scan_size_pages = 512;
    // Tiering promotes into a fast tier half the store's size: demand only
    // confirmed-hot pages (two references) or every cold zipfian touch
    // evicts a hot page and the tier thrashes. Plain AutoNUMA promotes on
    // first touch — capacity is not contended, so faster convergence wins.
    nb.two_reference = p == Policy::kTiering;
    nb.balance_period = sim::milliseconds(100);  // clients stay pinned
  }
  return cfg;
}

apps::KvPlacement placement_for(Policy p) {
  switch (p) {
    case Policy::kInterleave: return apps::KvPlacement::kInterleave;
    case Policy::kTiering: return apps::KvPlacement::kTiered;
    default: return apps::KvPlacement::kFirstTouch;
  }
}

struct PhaseRow {
  obs::Histogram lat;           ///< steady-window request latency (ns)
  sim::Time span = 0;           ///< full phase wall span (simulated)
  std::uint64_t requests = 0;   ///< all requests issued in the phase
  double hot_remote = 0.0;      ///< mean hot-shard remote fraction at end
  std::uint64_t migrated = 0;   ///< pages migrated during the phase
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<PhaseRow> run_serving(Policy pol, apps::Mix mix,
                                  std::uint64_t rpp) {
  rt::Machine m(config_for(pol));
  bench::observe(m);

  apps::KvConfig kc;
  kc.shards = kShards;
  kc.keys_per_shard = kKeysPerShard;
  kc.value_bytes = kValueBytes;
  kc.placement = placement_for(pol);
  apps::KvStore store(m, kc);

  constexpr unsigned kClients = kTenants * kClientsPerTenant;
  std::vector<topo::CoreId> cores;
  for (unsigned t = 0; t < kTenants; ++t)
    for (unsigned c = 0; c < kClientsPerTenant; ++c)
      cores.push_back(static_cast<topo::CoreId>(4 * t + c));

  std::vector<PhaseRow> rows(kPhases);
  std::array<sim::Time, kPhases + 1> boundary{};
  std::array<std::uint64_t, kPhases + 1> migrated_at{};
  std::vector<std::array<double, kTenants>> remote(kPhases);

  sim::Barrier bar(m.engine(), kClients, m.cost().barrier_phase);
  rt::Team team(m, cores);
  rt::Team::WorkerFn worker = [&](unsigned tid,
                                  rt::Thread& w) -> sim::Task<void> {
    const unsigned tenant = tid / kClientsPerTenant;
    const unsigned local = tid % kClientsPerTenant;

    apps::ClientTraffic::Config tc;
    tc.tenant = tenant;
    tc.tenants = kTenants;
    tc.keys_per_tenant = kKeysPerShard * kShardsPerTenant;
    tc.mix = mix;
    tc.theta = kTheta;
    tc.plan = {kPhases, rpp};
    tc.seed = kSeed ^ (0x9e3779b97f4a7c15ull * (tid + 1));
    apps::ClientTraffic gen(tc);

    co_await w.barrier(bar);
    if (tid == 0) boundary[0] = w.now();
    for (unsigned phase = 0; phase < kPhases; ++phase) {
      const std::uint64_t hot_shard =
          static_cast<std::uint64_t>(gen.range_of(phase)) * kShardsPerTenant;
      if (pol == Policy::kMovePages && phase == 1 && local == 0) {
        // The one corrective action: pull the new hot shard home. The
        // second shift gets no second action — its hot shard stays where
        // this move (by the previous owner) put it: remote.
        co_await w.move_range(store.shard_addr(hot_shard),
                              store.shard_bytes(), w.node());
      }
      const std::uint64_t warm = rpp / kWarmupDiv;
      for (std::uint64_t i = 0; i < rpp; ++i) {
        const apps::Request q = gen.next();
        co_await store.execute(w, q, i < warm ? nullptr : &rows[phase].lat);
      }
      co_await w.barrier(bar);
      // Between the boundary barriers: placement inspection (timing-free).
      if (local == 0) {
        std::uint64_t present = 0;
        for (unsigned n = 0; n < m.topology().num_nodes(); ++n)
          present += store.shard_pages_on(hot_shard, n);
        const std::uint64_t on = store.shard_pages_on(hot_shard, w.node());
        remote[phase][tenant] =
            present == 0 ? 0.0
                         : 1.0 - static_cast<double>(on) /
                                     static_cast<double>(present);
      }
      if (tid == 0) {
        boundary[phase + 1] = w.now();
        migrated_at[phase + 1] = migrated_pages(m.kernel().stats());
      }
      co_await w.barrier(bar);
    }
  };

  m.run_main(2, [&](rt::Thread& th) -> sim::Task<void> {
    co_await store.setup(th);
    co_await team.parallel(th, worker, "serving");
    co_await th.kmigrated_drain();
  });

  for (unsigned p = 0; p < kPhases; ++p) {
    rows[p].span = boundary[p + 1] - boundary[p];
    rows[p].requests = static_cast<std::uint64_t>(kClients) * rpp;
    rows[p].migrated = migrated_at[p + 1] - migrated_at[p];
    double r = 0.0;
    for (unsigned t = 0; t < kTenants; ++t) r += remote[p][t];
    rows[p].hot_remote = r / kTenants;
  }
  return rows;
}

void emit(const bench::Options& opts, Policy pol, apps::Mix mix,
          const std::vector<PhaseRow>& rows) {
  for (unsigned p = 0; p < rows.size(); ++p) {
    const PhaseRow& r = rows[p];
    const double tput_kops =
        r.span == 0 ? 0.0
                    : static_cast<double>(r.requests) * 1e6 /
                          static_cast<double>(r.span);
    std::uint64_t ck = 0xcbf29ce484222325ull;
    ck = fnv_mix(ck, r.lat.count());
    ck = fnv_mix(ck, r.lat.sum());
    ck = fnv_mix(ck, r.lat.min());
    ck = fnv_mix(ck, r.lat.max());
    ck = fnv_mix(ck, static_cast<std::uint64_t>(r.span));
    ck = fnv_mix(ck, r.migrated);
    ck = fnv_mix(ck, static_cast<std::uint64_t>(r.hot_remote * 1e4));
    char ckbuf[20];
    std::snprintf(ckbuf, sizeof ckbuf, "%016llx",
                  static_cast<unsigned long long>(ck));
    bench::print_row(
        opts,
        {policy_name(pol), apps::mix_name(mix), std::to_string(p),
         bench::fmt_u64(r.lat.count()),
         bench::fmt(r.lat.percentile(50) / 1000.0, "%.3f"),
         bench::fmt(r.lat.percentile(95) / 1000.0, "%.3f"),
         bench::fmt(r.lat.percentile(99) / 1000.0, "%.3f"),
         bench::fmt(r.lat.mean() / 1000.0, "%.3f"),
         bench::fmt(tput_kops, "%.1f"),
         bench::fmt(100.0 * r.hot_remote, "%.1f"),
         bench::fmt_u64(r.migrated), ckbuf});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::extra_usage() =
      "  --mix=M        restrict to one traffic mix:\n"
      "                 read_heavy|write_heavy|scan_mixed (default: all\n"
      "                 three; scan_mixed only with --quick)\n"
      "  --placement=P  restrict to one placement policy: first_touch|\n"
      "                 interleave|move_pages|autonuma|tiering\n";

  // Pull the bench-local enum flags out before the strict common parser.
  apps::Mix only_mix{};
  Policy only_pol{};
  bool have_mix = false, have_pol = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && bench::parse_enum_flag(argv[0], argv[i], "--mix", kMixes,
                                        only_mix)) {
      have_mix = true;
    } else if (i > 0 && bench::parse_enum_flag(argv[0], argv[i], "--placement",
                                               kPlacements, only_pol)) {
      have_pol = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::Options opts =
      bench::parse_options(static_cast<int>(rest.size()), rest.data());
  bench::Observability obsv(opts);

  bench::print_header(
      opts, "Serving mixes — multi-tenant KV latency-SLO policy showdown",
      {"policy", "mix", "phase", "requests", "p50_us", "p95_us", "p99_us",
       "mean_us", "tput_kops", "hot_remote_pct", "migrated", "cksum"});

  const std::uint64_t rpp = opts.quick ? 12000 : 30000;
  std::vector<apps::Mix> mixes;
  if (have_mix)
    mixes.push_back(only_mix);
  else if (opts.quick)
    mixes.push_back(apps::Mix::kScanMixed);
  else
    mixes = {apps::Mix::kReadHeavy, apps::Mix::kWriteHeavy,
             apps::Mix::kScanMixed};

  for (const apps::Mix mix : mixes) {
    for (const auto& pl : kPlacements) {
      if (have_pol && pl.value != only_pol) continue;
      emit(opts, pl.value, mix, run_serving(pl.value, mix, rpp));
    }
  }

  obsv.finish();
  return 0;
}
