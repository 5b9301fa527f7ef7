// Shared pieces of the end-to-end benchmark: host-time spans, correctness
// checks, the simulated-output digest, and the per-pass record every
// workload fills in.
//
// Spans are recorded only around the benchmark's own calls into a layer's
// public functions (constructors, Machine::run_main, Kernel syscalls,
// ClientTraffic::next). Work a layer does inside a simulated coroutine is
// reached only through run_main, so it shows up as counts, never as a
// separate host time.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kern/kernel.hpp"
#include "obs/trace.hpp"
#include "rt/machine.hpp"

namespace perfbench {

using namespace numasim;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder. Each span keeps its name, start, end, parent
/// and a tag (a request id for traffic spans, 0 otherwise). When off, a
/// Scope costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t tag;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t tag = 0) : t_(t) {
      if (t_.on_) idx_ = t_.open(name, tag);
    }
    ~Scope() {
      if (idx_ != kNoParent) t_.close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t idx_ = kNoParent;
  };

  /// Per name: total span time minus the time its direct children cover.
  std::map<std::string, double> self_seconds() const;
  /// Drop recorded spans (the origin stays, so timestamps keep increasing).
  void clear() { spans_.clear(); }
  /// Write the spans as JSON: {"names": [...], "spans": [[name index,
  /// parent index or -1, start ns, end ns, tag], ...]}. False on I/O
  /// failure.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::uint32_t open(const char* name, std::uint64_t tag);
  void close(std::uint32_t idx);

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Correctness checks; each one counts as an attempted operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  Checks& operator+=(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One execution of a workload's body with one seed.
class Pass {
 public:
  Pass(Tracer& tracer, std::uint64_t seed) : tracer_(tracer), seed_(seed) {}

  Tracer& tracer() { return tracer_; }
  std::uint64_t seed() const { return seed_; }

  /// Run `f` as set-up work: timed into setup_s and, when tracing, into a
  /// span called `span`. Returns what `f` returns.
  template <typename F>
  auto setup(const char* span, F&& f) {
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope s(tracer_, span);
    auto made = f();
    setup_s_ += seconds_between(t0, Clock::now());
    return made;
  }

  /// Run `f` as checking work: its host time is excluded from host_s.
  template <typename F>
  void check(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f(checks_);
    check_s_ += seconds_between(t0, Clock::now());
  }

  /// Host times of one sub-run.
  struct SubRunTimes {
    std::string name;
    double host_s;   ///< wall time minus the set-up and checking inside it
    double setup_s;  ///< the set-up inside it
  };

  /// Marks one sub-run of the pass (one machine or kernel, built, driven
  /// and checked); its times are recorded under `name`.
  class SubRun {
   public:
    SubRun(Pass& p, std::string name)
        : p_(p), name_(std::move(name)), t0_(Clock::now()),
          setup0_(p.setup_s_), check0_(p.check_s_) {}
    ~SubRun() {
      const double wall = seconds_between(t0_, Clock::now());
      const double setup = p_.setup_s_ - setup0_;
      p_.subruns_.push_back(
          {std::move(name_), wall - setup - (p_.check_s_ - check0_), setup});
    }
    SubRun(const SubRun&) = delete;
    SubRun& operator=(const SubRun&) = delete;

   private:
    Pass& p_;
    std::string name_;
    Clock::time_point t0_;
    double setup0_;
    double check0_;
  };

  /// In a traced pass, subscribe a null sink to `k`'s tracepoints, so that
  /// the simulator's own tracing path runs and the digest shows whether it
  /// changes a simulated result. The Pass must outlive `k`.
  void attach_sink(kern::Kernel& k) {
    if (tracer_.on()) k.add_trace_sink(&sink_);
  }

  /// Kernel::validate() on `pid` plus the soft-TLB audit of every context
  /// in `ctxs`, as one check.
  void validate(const kern::Kernel& k, kern::Pid pid, const std::string& what,
                std::span<const kern::ThreadCtx> ctxs = {});
  /// Every page of [addr, addr+len) must sit on `node`.
  void expect_on_node(const kern::Kernel& k, kern::Pid pid, vm::Vaddr addr,
                      std::uint64_t len, topo::NodeId node,
                      const std::string& what);

  /// Fold a finished kernel's stats into the pass's per-layer counts.
  void add_kernel(const kern::Kernel& k);
  /// Fold a finished machine: kernel stats, engine events, thread lock wait.
  void add_machine(rt::Machine& m);

  void count(const std::string& name, double v) { counts_[name] += v; }
  void output(const std::string& name, double v) { outputs_[name] = v; }
  void add_ops(std::uint64_t n) { ops_ += n; }
  Digest& digest() { return digest_; }

  std::uint64_t ops() const { return ops_; }
  const Checks& checks() const { return checks_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  const std::map<std::string, double>& outputs() const { return outputs_; }
  const std::vector<SubRunTimes>& subruns() const { return subruns_; }

  /// Digest of the simulated outputs and every exact count.
  std::uint64_t final_digest() const;

 private:
  Tracer& tracer_;
  std::uint64_t seed_;
  double setup_s_ = 0;
  double check_s_ = 0;
  std::uint64_t ops_ = 0;
  Checks checks_;
  Digest digest_;
  std::map<std::string, double> counts_;
  std::map<std::string, double> outputs_;
  std::vector<SubRunTimes> subruns_;
  obs::NullSink sink_;
};

/// The 4-socket quad-core Opteron of the paper, phantom-backed (frames are
/// accounted, never allocated), with the library's default engines.
kern::KernelConfig paper_machine();

/// splitmix64: derives independent input streams from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// The workloads (one file each).
void run_lu_table1(Pass& p);
void run_kv_shift(Pass& p);
void run_migrate_mech(Pass& p);

}  // namespace perfbench
