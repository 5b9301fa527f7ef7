// Paper reference values the benchmark scores its simulated headline
// numbers against (paper_err_pct). Each value carries where it comes from:
// the figure or table of Goglin & Furmento 2009 and the EXPERIMENTS.md row
// that records it. kv_shift has no reference: no published number exists
// for the serving workload, so its simulated p99 is reported unvalidated.
#pragma once

#include <cstdint>

namespace perfbench::reference {

/// Table 1 of the paper: LU next-touch improvement over static interleave,
/// in percent, 16 threads.
struct LuRow {
  std::uint64_t n;
  std::uint64_t bs;
  double improvement_pct;
  const char* source;
};

inline constexpr LuRow kLuRows[] = {
    {8192, 128, -18.2, "Table 1, 8k/128 (EXPERIMENTS.md: Table 1 row 8k|128)"},
    {16384, 512, +85.8, "Table 1, 16k/512 (EXPERIMENTS.md: Table 1 row 16k|512)"},
};

/// Plateau migration throughput in MB/s.
struct Throughput {
  const char* name;
  double mb_per_s;
  const char* source;
};

inline constexpr Throughput kMovePages{
    "move_pages", 600.0,
    "Fig. 4, patched move_pages plateau ~600 MB/s (EXPERIMENTS.md: Fig. 4 "
    "row 'patched move_pages plateau / base')"};
inline constexpr Throughput kMigratePages{
    "migrate_pages", 780.0,
    "Fig. 4, migrate_pages plateau 780 MB/s (EXPERIMENTS.md: Fig. 4 row "
    "'migrate_pages plateau / base')"};
inline constexpr Throughput kKernelNextTouch{
    "kernel_nt", 800.0,
    "Fig. 5, kernel next-touch ~800 MB/s (EXPERIMENTS.md: Fig. 5 row "
    "'kernel next-touch')"};
inline constexpr Throughput kUserNextTouch{
    "user_nt", 600.0,
    "Fig. 5, user next-touch (patched) ~600 MB/s (EXPERIMENTS.md: Fig. 5 row "
    "'user next-touch (patched)')"};
inline constexpr Throughput kSync4{
    "sync_4t", 975.0,
    "Fig. 7, 4-thread synchronous takeover of a large buffer 0.95-1.0 GB/s, "
    "midpoint (EXPERIMENTS.md: Fig. 7 row 'sync 4-thread gain, large "
    "buffers')"};
inline constexpr Throughput kLazy4{
    "lazy_4t", 1300.0,
    "Fig. 7, 4-thread lazy (next-touch) takeover peak ~1.3 GB/s "
    "(EXPERIMENTS.md: Fig. 7 row 'lazy scales slightly better, peak')"};

}  // namespace perfbench::reference
