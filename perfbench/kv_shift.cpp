// kv_shift: the multi-tenant KV serving workload of bench/serving_mixes
// (4 tenants x 2 clients, 3 phases whose hot key range rotates one tenant
// over, scan_mixed traffic) under the two policies that migrate in the
// background: autonuma (hint faults + kmigrated promotion) and tiering
// (fast/DRAM tiers, promotion and demotion). The seed drives the client
// request streams. apps.traffic, kern.numab, kern.tiers and kmigrated do
// their work here and nowhere else in the benchmark.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "apps/kvstore.hpp"
#include "apps/traffic.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"
#include "sim/barrier.hpp"

namespace perfbench {
namespace {

// Store and traffic shape of bench/serving_mixes: 16 shards x 512 keys x
// 1 KiB; each tenant's range is 4 shards whose first carries ~80 % of its
// zipfian mass.
constexpr unsigned kTenants = 4;
constexpr unsigned kClientsPerTenant = 2;
constexpr unsigned kClients = kTenants * kClientsPerTenant;
constexpr unsigned kPhases = 3;
constexpr std::uint64_t kShards = 16;
constexpr std::uint64_t kKeysPerShard = 512;
constexpr std::uint64_t kShardsPerTenant = kShards / kTenants;
constexpr double kTheta = 0.99;
/// Requests per client per phase (serving_mixes --quick size).
constexpr std::uint64_t kRequestsPerPhase = 12000;
/// The first quarter of every phase is warm-up, outside the latency window.
constexpr std::uint64_t kWarmup = kRequestsPerPhase / 4;

enum class Policy { kAutonuma, kTiering };

/// serving_mixes's machine for the policy: the paper machine with AutoNUMA
/// tuned to the phase scale, or a tiered machine (2 small fast nodes + 2
/// DRAM nodes) with a slower two-reference scan clock.
kern::KernelConfig config_for(Policy pol) {
  kern::KernelConfig cfg = paper_machine();
  if (pol == Policy::kTiering) {
    cfg.topology =
        topo::Topology::from_spec("nodes=4 cores=4 tiers=fast:2,dram:2 fast_mb=3");
    cfg.tiers.enabled = true;
  }
  kern::NumaBalancingConfig& nb = cfg.numa_balancing;
  nb.enabled = true;
  nb.scan_period = pol == Policy::kTiering ? sim::microseconds(1500)
                                           : sim::microseconds(300);
  nb.scan_size_pages = 512;
  nb.two_reference = pol == Policy::kTiering;
  nb.balance_period = sim::milliseconds(100);
  return cfg;
}

void run_policy(Pass& p, Policy pol, const char* name) {
  const std::string what = std::string("kv ") + name;
  Pass::SubRun sub(p, what);
  auto m = p.setup("setup.machine",
                   [&] { return std::make_unique<rt::Machine>(config_for(pol)); });
  p.attach_sink(m->kernel());
  auto store = p.setup("setup.kvstore", [&] {
    apps::KvConfig kc;
    kc.shards = kShards;
    kc.keys_per_shard = kKeysPerShard;
    kc.placement = pol == Policy::kTiering ? apps::KvPlacement::kTiered
                                           : apps::KvPlacement::kFirstTouch;
    return std::make_unique<apps::KvStore>(*m, kc);
  });
  auto gens = p.setup("setup.traffic", [&] {
    std::vector<apps::ClientTraffic> v;
    v.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      apps::ClientTraffic::Config tc;
      tc.tenant = c / kClientsPerTenant;
      tc.tenants = kTenants;
      tc.keys_per_tenant = kKeysPerShard * kShardsPerTenant;
      tc.mix = apps::Mix::kScanMixed;
      tc.theta = kTheta;
      tc.plan = {kPhases, kRequestsPerPhase};
      tc.seed = mix_seed(p.seed(), c);
      v.emplace_back(tc);
    }
    return v;
  });
  auto team = p.setup("setup.machine", [&] {
    std::vector<topo::CoreId> cores;
    for (unsigned c = 0; c < kClients; ++c)
      cores.push_back(static_cast<topo::CoreId>(4 * (c / kClientsPerTenant) +
                                                c % kClientsPerTenant));
    return std::make_unique<rt::Team>(*m, std::move(cores));
  });

  std::array<std::uint64_t, 3> generated{};  // gets, puts, scans
  obs::Histogram steady;                     // post-shift steady latencies
  std::uint64_t latency_sum = 0;
  std::array<sim::Time, kPhases + 1> boundary{};
  double remote_sum = 0;
  sim::Barrier bar(m->engine(), kClients, m->cost().barrier_phase);
  Tracer& tr = p.tracer();

  rt::Team::WorkerFn worker = [&](unsigned tid,
                                  rt::Thread& w) -> sim::Task<void> {
    apps::ClientTraffic& gen = gens[tid];
    const bool leader = tid % kClientsPerTenant == 0;
    co_await w.barrier(bar);
    if (tid == 0) boundary[0] = w.now();
    for (unsigned phase = 0; phase < kPhases; ++phase) {
      for (std::uint64_t i = 0; i < kRequestsPerPhase; ++i) {
        apps::Request q;
        {
          Tracer::Scope s(tr, "apps.traffic",
                          std::uint64_t{tid} << 32 | gen.emitted());
          q = gen.next();
        }
        ++generated[static_cast<std::size_t>(q.op)];
        const sim::Time t0 = w.now();
        co_await store->execute(w, q);
        const auto lat = static_cast<std::uint64_t>(w.now() - t0);
        latency_sum += lat;
        if (phase > 0 && i >= kWarmup) steady.record(lat);
      }
      co_await w.barrier(bar);
      if (leader) {
        // Hot shard of this tenant's current range: remote share at phase end.
        const std::uint64_t hot =
            std::uint64_t{gen.range_of(phase)} * kShardsPerTenant;
        std::uint64_t present = 0;
        for (unsigned n = 0; n < m->topology().num_nodes(); ++n)
          present += store->shard_pages_on(hot, n);
        const std::uint64_t on = store->shard_pages_on(hot, w.node());
        if (present > 0)
          remote_sum += 1.0 - static_cast<double>(on) / static_cast<double>(present);
      }
      if (tid == 0) boundary[phase + 1] = w.now();
      co_await w.barrier(bar);
    }
  };

  {
    Tracer::Scope s(tr, "sim.run");
    m->run_main(2, [&](rt::Thread& th) -> sim::Task<void> {
      co_await store->setup(th);
      co_await team->parallel(th, worker, "serving");
      co_await th.kmigrated_drain();
    });
  }

  const apps::KvStore::OpStats& st = store->stats();
  const std::uint64_t requests = std::uint64_t{kClients} * kPhases * kRequestsPerPhase;
  p.validate(m->kernel(), m->pid(), what);
  p.check([&](Checks& c) {
    c.expect(st.gets == generated[0] && st.puts == generated[1] &&
                 st.scans == generated[2],
             what + ": store op counts equal the generated op counts");
    c.expect(st.gets + st.puts + st.scans == requests,
             what + ": every generated request was served");
  });

  // The p99 definition of bench/serving_mixes and BENCH_serving.json.
  const double p99 = steady.percentile(99);
  p.output(std::string("sim_p99_us.") + name, p99 * 1e-3);
  p.add_machine(*m);
  p.count("apps.traffic.requests", static_cast<double>(requests));
  p.count("apps.kv.gets", static_cast<double>(st.gets));
  p.count("apps.kv.puts", static_cast<double>(st.puts));
  p.count("apps.kv.scans", static_cast<double>(st.scans));
  p.count("apps.kv.index_probes", static_cast<double>(st.index_probes));
  p.count("apps.kv.hot_remote_frac_sum", remote_sum);
  p.count("apps.kv.hot_remote_samples", kTenants * kPhases);
  p.add_ops(requests);
  Digest& d = p.digest();
  d.mix_double(p99);
  d.mix(latency_sum);
  d.mix(steady.count());
  for (sim::Time b : boundary) d.mix(static_cast<std::uint64_t>(b));
}

}  // namespace

void run_kv_shift(Pass& p) {
  run_policy(p, Policy::kAutonuma, "autonuma");
  run_policy(p, Policy::kTiering, "tiering");
}

}  // namespace perfbench
