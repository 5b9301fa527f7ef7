// perfbench: end-to-end host-time benchmark of numasim with per-layer
// attribution. See README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// On seeded workloads a run first executes one warm-up pass with seed N+1,
// whose digest must differ from seed N's. It then repeats passes with seed
// N until S seconds have gone by (at least two; with --trace 1, untraced and
// traced passes alternate, at least two of each). Traced passes subscribe a
// null sink to every kernel's tracepoints. Every pass with seed N, traced or
// not, must produce the same digest. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, the metrics being
// the end-to-end ones (--trace 0) or the per-layer ones (--trace 1).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  void (*run)(Pass&);
  /// The seed reaches the inputs (a different seed changes the digest).
  bool seeded;
};

constexpr Workload kWorkloads[] = {
    {"lu_table1", run_lu_table1, false},
    {"kv_shift", run_kv_shift, true},
    {"migrate_mech", run_migrate_mech, true},
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"host_s", "s"},
    {"ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics, grouped by layer. host.* values are span self times
// from traced passes; the rest are exact counts or simulated outputs.
constexpr Metric kPerLayer[] = {
    // sim: engine dispatch + rt fork/join
    {"sim.events", "count"},
    {"sim.lock_wait_ms", "sim_ms"},
    {"host.sim.run_s", "s"},
    // kern.access + soft-TLB
    {"kern.access.walks", "count"},
    {"kern.stlb.hit_ratio", "ratio"},
    {"kern.stlb.invalidations", "count"},
    {"host.kern.access_s", "s"},
    // kern.fault
    {"kern.faults.minor", "count"},
    {"kern.faults.nexttouch", "count"},
    {"kern.faults.protection", "count"},
    // kern.migrate + txn_migrate
    {"kern.migrate.pages.move", "count"},
    {"kern.migrate.pages.process", "count"},
    {"kern.migrate.pages.nexttouch", "count"},
    {"kern.migrate.pages.kmigrated", "count"},
    {"kern.migrate.failed", "count"},
    {"kern.migrate.retries", "count"},
    {"kern.txn.commits", "count"},
    {"kern.txn.dirty_retries", "count"},
    {"kern.txn.degraded", "count"},
    {"kern.txn.aborted", "count"},
    {"host.kern.move_pages_s", "s"},
    {"host.kern.migrate_pages_s", "s"},
    {"host.kern.move_pages_ranged_s", "s"},
    {"host.kern.madvise_s", "s"},
    {"host.kern.mprotect_s", "s"},
    // kern.numab
    {"kern.numab.pages_scanned", "count"},
    {"kern.numab.hint_faults", "count"},
    {"kern.numab.pages_promoted", "count"},
    {"kern.numab.promotions_deferred", "count"},
    {"kern.numab.hint_local_ratio", "ratio"},
    // kern.tiers + kmigrated
    {"kern.tier.promotions", "count"},
    {"kern.tier.demotions", "count"},
    {"kern.tier.demote_passes", "count"},
    {"kern.kmigrated.batches", "count"},
    {"kern.kmigrated.pages_per_batch", "ratio"},
    // lib
    {"host.lib.user_nt_s", "s"},
    {"kern.signals", "count"},
    // apps.traffic
    {"apps.traffic.requests", "count"},
    {"host.apps.traffic_s", "s"},
    // apps.kvstore / apps.lu
    {"apps.kv.gets", "count"},
    {"apps.kv.puts", "count"},
    {"apps.kv.scans", "count"},
    {"apps.kv.index_probes", "count"},
    {"apps.kv.hot_remote_pct", "%"},
    {"apps.lu.madvise_calls", "count"},
    {"apps.lu.nexttouch_faults", "count"},
    {"apps.lu.nexttouch_migrations", "count"},
    // setup
    {"host.setup.machine_s", "s"},
    {"host.setup.kvstore_s", "s"},
    {"host.setup.traffic_s", "s"},
    {"host.setup.lu_s", "s"},
    // simulated headline outputs and the tracing cost
    {"paper_err_pct", "%"},
    {"sim_p99_us.autonuma", "sim_us"},
    {"sim_p99_us.tiering", "sim_us"},
    {"host.trace_overhead_s", "s"},
};

struct PassRecord {
  bool traced = false;
  std::uint64_t ops = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> subrun_s;  ///< host time per sub-run
  std::map<std::string, double> setup_s;   ///< set-up time per sub-run
  std::map<std::string, double> self_s;    ///< span self times (traced only)
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per name, the smallest value over `passes` of what `field` maps it to.
std::map<std::string, double> fastest(
    const std::vector<PassRecord>& passes,
    std::map<std::string, double> PassRecord::*field) {
  std::map<std::string, double> best;
  for (const PassRecord& r : passes)
    for (const auto& [name, s] : r.*field) {
      const auto [it, fresh] = best.try_emplace(name, s);
      if (!fresh) it->second = std::min(it->second, s);
    }
  return best;
}

/// host_s (or setup_s) of a set of passes: the sum over sub-runs of each
/// sub-run's fastest time. Contention from other tenants of the host only
/// ever slows a sub-run down, so its fastest repeat is the steadiest
/// estimate of the program's own cost (see README.md, "Noise").
double sum_fastest(const std::vector<PassRecord>& passes,
                   std::map<std::string, double> PassRecord::*field) {
  double sum = 0;
  for (const auto& [name, s] : fastest(passes, field)) sum += s;
  return sum;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Unit of a simulated output, by its name's prefix.
const char* output_unit(const std::string& name) {
  if (name.starts_with("mbs.")) return "MB/s";
  if (name.starts_with("sim_p99_us.")) return "sim_us";
  return "%";  // paper_err_pct, lu.improvement_pct.*
}

/// Peak resident set of this process in MB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss is not used: it survives execve, so it would
/// report a larger launcher's peak for a small run.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb / 1024.0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload lu_table1|kv_shift|migrate_mech "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string("bad ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool seed_set = false;
  bool trace_set = false;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) usage((std::string("missing value for ") + a).c_str());
    const char* v = argv[++i];
    if (std::strcmp(a, "--workload") == 0) {
      for (const Workload& c : kWorkloads)
        if (std::strcmp(v, c.name) == 0) w = &c;
      if (w == nullptr) usage("unknown workload");
    } else if (std::strcmp(a, "--seed") == 0) {
      seed = parse_u64(v, "--seed");
      seed_set = true;
    } else if (std::strcmp(a, "--seconds") == 0) {
      seconds = parse_u64(v, "--seconds");
    } else if (std::strcmp(a, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      trace = v[0] == '1';
      trace_set = true;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      trace_out = v;
    } else {
      usage((std::string("unknown option ") + a).c_str());
    }
  }
  if (w == nullptr) usage("--workload is required");
  if (!seed_set) usage("--seed is required");
  if (seconds == 0) usage("--seconds is required and must be at least 1");
  if (!trace_set) usage("--trace is required");

  Tracer tracer;
  Checks checks;
  std::map<std::string, double> counts, outputs;
  auto run_pass = [&](std::uint64_t s, bool traced) {
    if (traced) tracer.clear();
    tracer.set_on(traced);
    Pass p(tracer, s);
    w->run(p);
    checks += p.checks();
    counts = p.counts();
    outputs = p.outputs();
    PassRecord r;
    r.traced = traced;
    r.ops = p.ops();
    r.digest = p.final_digest();
    for (const Pass::SubRunTimes& t : p.subruns()) {
      r.subrun_s[t.name] += t.host_s;
      r.setup_s[t.name] += t.setup_s;
    }
    if (traced) r.self_s = tracer.self_seconds();
    return r;
  };

  // Seeded workloads first run one pass with seed N+1: a warm-up, left out
  // of every figure, whose digest must differ from seed N's.
  const std::uint64_t other_digest = w->seeded ? run_pass(seed + 1, false).digest : 0;
  std::vector<PassRecord> passes;
  const Clock::time_point start = Clock::now();
  for (;;) {
    std::size_t plain = 0, traced = 0;
    for (const PassRecord& r : passes) ++(r.traced ? traced : plain);
    const bool enough = plain >= 2 && (!trace || traced >= 2);
    if (enough && seconds_between(start, Clock::now()) >= static_cast<double>(seconds))
      break;
    passes.push_back(run_pass(seed, trace && plain > traced));
  }

  // Determinism: every pass of this seed, traced or not, gives one digest.
  for (std::size_t i = 1; i < passes.size(); ++i)
    checks.expect(passes[i].digest == passes[0].digest,
                  "pass " + std::to_string(i) + (passes[i].traced ? " (traced)" : "") +
                      ": digest equals the first pass's");
  if (w->seeded)
    checks.expect(other_digest != passes[0].digest, "seed + 1 changes the digest");

  std::vector<PassRecord> plain, traced;
  for (const PassRecord& r : passes) (r.traced ? traced : plain).push_back(r);
  const double host_s = sum_fastest(plain, &PassRecord::subrun_s);

  std::map<std::string, double> e2e{
      {"host_s", host_s},
      {"ops_per_s", static_cast<double>(passes[0].ops) / host_s},
      {"setup_s", sum_fastest(plain, &PassRecord::setup_s)},
      {"peak_rss_mb", peak_rss_mb()}};

  std::map<std::string, double> layer = counts;
  for (const auto& [k, v] : outputs) layer[k] = v;
  const double walks = counts["kern.stlb.hits"] + counts["kern.stlb.misses"];
  layer["kern.access.walks"] = walks;
  layer["kern.stlb.hit_ratio"] = ratio(counts["kern.stlb.hits"], walks);
  layer["kern.numab.hint_local_ratio"] = ratio(
      counts["kern.numab.hint_faults_local"], counts["kern.numab.hint_faults"]);
  layer["kern.kmigrated.pages_per_batch"] =
      ratio(counts["kern.migrate.pages.kmigrated"], counts["kern.kmigrated.batches"]);
  layer["apps.kv.hot_remote_pct"] = 100.0 * ratio(counts["apps.kv.hot_remote_frac_sum"],
                                                  counts["apps.kv.hot_remote_samples"]);
  if (trace) {
    for (const auto& [name, s] : fastest(traced, &PassRecord::self_s))
      layer["host." + name + "_s"] = s;
    layer["host.trace_overhead_s"] =
        sum_fastest(traced, &PassRecord::subrun_s) - host_s;
  }

  // Human-readable report: every metric with its unit, then the JSON line.
  std::printf("# perfbench %s seed=%llu passes=%zu (%zu traced) digest=%016llx\n",
              w->name, static_cast<unsigned long long>(seed), passes.size(),
              traced.size(), static_cast<unsigned long long>(passes[0].digest));
  for (const auto& [name, best] : fastest(plain, &PassRecord::subrun_s)) {
    std::vector<double> all;
    for (const PassRecord& r : plain) all.push_back(r.subrun_s.at(name));
    std::printf("# sub-run %-24s fastest %.4f s, median %.4f s\n", name.c_str(),
                best, median(all));
  }
  for (const Metric& m : kEndToEnd)
    std::printf("%-34s %.6g %s\n", m.name, e2e[m.name], m.unit);
  for (const auto& [name, v] : outputs)
    std::printf("%-34s %.6g %s\n", name.c_str(), v, output_unit(name));
  std::printf("%-34s %.6g ratio (%llu failed / %llu checks)\n", "fail_frac",
              ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  if (trace) {
    for (const Metric& m : kPerLayer)
      std::printf("%-34s %.6g %s\n", m.name, layer[m.name], m.unit);
    if (!trace_out.empty() && !tracer.write_json(trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  bool first = true;
  const auto emit = [&](const Metric& m, double v) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name, v, m.unit);
    first = false;
  };
  if (trace) {
    for (const Metric& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  std::printf("}}\n");
  return checks.failed == 0 ? 0 : 1;
}
