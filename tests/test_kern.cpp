// Unit tests for the simulated kernel: policies, faults, move_pages,
// migrate_pages, madvise(MIGRATE_ON_NEXT_TOUCH), mprotect + SIGSEGV.
//
// The kernel API is synchronous (the coroutine runtime sits above it), so
// these tests drive it directly with hand-built ThreadCtx objects.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized}) {
    pid_ = k_.create_process("test");
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  /// The PTE behind `addr` (nullptr when its page-table chunk is absent).
  const vm::Pte* pte_of(vm::Vaddr addr) {
    return k_.address_space(pid_).page_table().find(vm::vpn_of(addr));
  }

  std::vector<vm::Vaddr> pages_of(vm::Vaddr addr, std::uint64_t len) {
    std::vector<vm::Vaddr> v;
    for (vm::Vpn p = vm::vpn_of(addr); p < vm::vpn_of(addr + len - 1) + 1; ++p)
      v.push_back(vm::addr_of(p));
    return v;
  }

  topo::Topology topo_;
  Kernel k_;
  Pid pid_ = 0;
};

TEST_F(KernelTest, FirstTouchAllocatesOnLocalNode) {
  ThreadCtx t = ctx_on(4);  // node 1
  const vm::Vaddr a = k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.page_node(pid_, a), topo::kInvalidNode);  // lazy

  const AccessResult r =
      k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kReadWrite, 3500.0);
  EXPECT_EQ(r.pages, 8u);
  EXPECT_EQ(r.minor_faults, 8u);
  for (vm::Vaddr p : pages_of(a, 8 * mem::kPageSize))
    EXPECT_EQ(k_.page_node(pid_, p), 1u);
  EXPECT_GT(t.clock, 0u);
  EXPECT_EQ(k_.stats().minor_faults, 8u);
}

TEST_F(KernelTest, InterleavePolicySpreadsPagesDeterministically) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()));
  k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  for (unsigned i = 0; i < 8; ++i)
    EXPECT_EQ(k_.page_node(pid_, a + i * mem::kPageSize), i % 4);
}

TEST_F(KernelTest, BindPolicyPinsToNode) {
  ThreadCtx t = ctx_on(0);  // node 0
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite,
                                  vm::MemPolicy::bind(topo::node_mask_of(3)));
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 4 * mem::kPageSize, 3), 4u);
}

TEST_F(KernelTest, TaskPolicyAppliesWhenVmaIsDefault) {
  ThreadCtx t = ctx_on(0);
  k_.sys_set_mempolicy(t, vm::MemPolicy::preferred(2));
  const vm::Vaddr a = k_.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 2 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 2 * mem::kPageSize, 2), 2u);

  vm::MemPolicy out;
  k_.sys_get_mempolicy(t, out);
  EXPECT_EQ(out.mode, vm::PolicyMode::kPreferred);
}

TEST_F(KernelTest, GetcpuReportsCoreAndNode) {
  ThreadCtx t = ctx_on(9);
  topo::CoreId core = 0;
  topo::NodeId node = 0;
  EXPECT_EQ(k_.sys_getcpu(t, &core, &node), 0);
  EXPECT_EQ(core, 9u);
  EXPECT_EQ(node, 2u);
}

TEST_F(KernelTest, MovePagesMigratesAndPreservesData) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::byte>(i * 7);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  const auto pages = pages_of(a, len);
  std::vector<topo::NodeId> nodes(pages.size(), 2);
  std::vector<int> status(pages.size(), -1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  for (int s : status) EXPECT_EQ(s, 2);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 16u);
  EXPECT_EQ(k_.stats().pages_migrated_move, 16u);

  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);
}

TEST_F(KernelTest, MovePagesQueryModeReportsLocations) {
  ThreadCtx t = ctx_on(12);  // node 3
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  const auto pages = pages_of(a, 4 * mem::kPageSize);
  std::vector<int> status(pages.size(), -1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, {}, status), 0);
  for (int s : status) EXPECT_EQ(s, 3);
}

TEST_F(KernelTest, MovePagesReportsEfaultForUnmappedAndAbsent) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 2 * mem::kPageSize, vm::Prot::kReadWrite);
  k_.access(t, a, mem::kPageSize, vm::Prot::kWrite, 3500.0);  // only first page

  const std::vector<vm::Vaddr> pages{a, a + mem::kPageSize, 0x10};
  std::vector<topo::NodeId> nodes(3, 1);
  std::vector<int> status(3, 0);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  EXPECT_EQ(status[0], 1);
  EXPECT_EQ(status[1], -kEFAULT);  // never touched
  EXPECT_EQ(status[2], -kEFAULT);  // unmapped
}

TEST_F(KernelTest, MovePagesArgumentValidation) {
  ThreadCtx t = ctx_on(0);
  std::vector<vm::Vaddr> pages{0x1000};
  std::vector<topo::NodeId> nodes{0, 1};
  std::vector<int> status(1);
  EXPECT_EQ(k_.sys_move_pages(t, pages, nodes, status), -kEINVAL);
  std::vector<topo::NodeId> bad{99};
  EXPECT_EQ(k_.sys_move_pages(t, pages, bad, status), 0);
  EXPECT_EQ(status[0], -kEFAULT);  // unmapped wins over bad node here
}

TEST_F(KernelTest, QuadraticImplIsSlowerOnLargeRequests) {
  // Same end state, radically different cost — the Fig. 4 pathology.
  auto run = [&](MovePagesImpl impl) {
    Kernel k(KernelConfig{.topology = topo_,
                          .backing = mem::Backing::kMaterialized,
                          .move_pages_impl = impl});
    ThreadCtx t;
    t.pid = k.create_process("test");
    const std::uint64_t len = 2048 * mem::kPageSize;
    const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
    k.access(t, a, len, vm::Prot::kWrite, 3500.0);
    const auto pages = pages_of(a, len);
    std::vector<topo::NodeId> nodes(pages.size(), 1);
    std::vector<int> status(pages.size(), 0);
    const sim::Time t0 = t.clock;
    EXPECT_EQ(k.sys_move_pages(t, pages, nodes, status), 0);
    EXPECT_EQ(k.pages_on_node(t.pid, a, len, 1), 2048u);
    return t.clock - t0;
  };
  const sim::Time linear = run(MovePagesImpl::kLinear);
  const sim::Time quadratic = run(MovePagesImpl::kQuadratic);
  EXPECT_GT(quadratic, 2 * linear);
}

TEST_F(KernelTest, MigratePagesMovesWholeProcess) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 32 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.access(t, b, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(k_.pages_on_node(pid_, a, len, 0), 32u);

  const SyscallResult moved = k_.sys_migrate_pages(
      t, pid_, topo::node_mask_of(0), topo::node_mask_of(2));
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved.count(), 64);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 32u);
  EXPECT_EQ(k_.pages_on_node(pid_, b, len, 2), 32u);
  EXPECT_EQ(k_.stats().pages_migrated_process, 64u);
}

TEST_F(KernelTest, MigratePagesRelativeNodeMapping) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 8 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(0b0011));  // nodes 0,1
  k_.access(t, a, 8 * mem::kPageSize, vm::Prot::kWrite, 3500.0);

  // {0,1} -> {2,3}: 0->2, 1->3.
  EXPECT_EQ(k_.sys_migrate_pages(t, pid_, 0b0011, 0b1100), 8);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 2), 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, 8 * mem::kPageSize, 3), 4u);
}

TEST_F(KernelTest, NextTouchMigratesToTouchingNode) {
  ThreadCtx t0 = ctx_on(0);  // node 0
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::byte>(i);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  EXPECT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);

  ThreadCtx t2 = ctx_on(8);  // node 2
  const AccessResult r = k_.access(t2, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.nexttouch_migrations, 8u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 8u);

  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);

  // Flag is one-shot: a later touch from elsewhere does not migrate.
  ThreadCtx t1 = ctx_on(4);
  const AccessResult r2 = k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r2.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 8u);
}

TEST_F(KernelTest, NextTouchLocalTouchJustRearms) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.sys_madvise(t, a, len, Advice::kMigrateOnNextTouch);

  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.nexttouch_migrations, 0u);
  EXPECT_EQ(r.nexttouch_hits_local, 4u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 4u);
}

TEST_F(KernelTest, NextTouchOnUntouchedPagesIsFirstTouch) {
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  // Nothing present yet; madvise marks nothing.
  EXPECT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);
  ThreadCtx t3 = ctx_on(12);
  const AccessResult r = k_.access(t3, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(r.minor_faults, 4u);
  EXPECT_EQ(r.nexttouch_migrations, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 3), 4u);
}

TEST_F(KernelTest, MadviseDontNeedDropsPages) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  const std::uint64_t used = k_.phys().total_used_frames();
  EXPECT_EQ(k_.sys_madvise(t, a, len, Advice::kDontNeed), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), used - 4);
  EXPECT_EQ(k_.page_node(pid_, a), topo::kInvalidNode);
  // Next touch zero-fills afresh.
  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.minor_faults, 4u);
}

TEST_F(KernelTest, MprotectNoneRaisesSegvAndHandlerRepairs) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 2 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.sys_mprotect(t, a, len, vm::Prot::kNone), 0);

  unsigned handler_calls = 0;
  k_.set_sigsegv_handler(pid_, [&](ThreadCtx& ht, const SigInfo& info) {
    ++handler_calls;
    EXPECT_EQ(info.fault_addr, a);
    k_.sys_mprotect(ht, a, len, vm::Prot::kReadWrite,
                    sim::CostKind::kMprotectRestore);
  });

  const AccessResult r = k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(handler_calls, 1u);
  EXPECT_EQ(r.sigsegv_delivered, 1u);
  EXPECT_GT(t.stats.get(sim::CostKind::kSignalDelivery), 0u);
}

TEST_F(KernelTest, UnhandledSegvThrows) {
  ThreadCtx t = ctx_on(0);
  EXPECT_THROW(k_.access(t, 0x10, 8, vm::Prot::kRead, 3500.0), SegfaultError);
}

TEST_F(KernelTest, HandlerThatDoesNotRepairThrowsAfterRetries) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kRead);
  k_.set_sigsegv_handler(pid_, [](ThreadCtx&, const SigInfo&) {});
  EXPECT_THROW(k_.access(t, a, 8, vm::Prot::kWrite, 3500.0), SegfaultError);
}

TEST_F(KernelTest, ReadWriteBytesRoundtripAcrossPages) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a = k_.sys_mmap(t, 3 * mem::kPageSize, vm::Prot::kReadWrite);
  std::vector<std::byte> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i * 13);
  const vm::Vaddr mid = a + mem::kPageSize - 100;  // crosses two boundaries
  EXPECT_EQ(k_.write_bytes(t, mid, data), 0);
  std::vector<std::byte> out(5000);
  EXPECT_EQ(k_.read_bytes(t, mid, out), 0);
  EXPECT_EQ(out, data);
}

TEST_F(KernelTest, UserMemcpyCopiesAndFaultsDestination) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr src = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const vm::Vaddr dst = k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                                    vm::MemPolicy::bind(topo::node_mask_of(1)));
  k_.access(t, src, len, vm::Prot::kWrite, 3500.0);
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::byte>(i ^ 0x5a);
  ASSERT_TRUE(k_.poke(pid_, src, data));

  EXPECT_EQ(k_.user_memcpy(t, dst, src, len), 0);
  EXPECT_EQ(k_.pages_on_node(pid_, dst, len, 1), 8u);
  std::vector<std::byte> out(len);
  ASSERT_TRUE(k_.peek(pid_, dst, out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(k_.user_memcpy(t, dst, src + len, mem::kPageSize), -kEFAULT);
}

TEST_F(KernelTest, MunmapFreesFramesAndUnmaps) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 6 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  const std::uint64_t used = k_.phys().total_used_frames();
  EXPECT_EQ(k_.sys_munmap(t, a, len), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), used - 6);
  EXPECT_THROW(k_.access(t, a, 8, vm::Prot::kRead, 3500.0), SegfaultError);
}

TEST_F(KernelTest, NumaMapsReportsPolicyAndPlacement) {
  ThreadCtx t = ctx_on(0);
  const vm::Vaddr a =
      k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()), "heap");
  k_.access(t, a, 4 * mem::kPageSize, vm::Prot::kWrite, 3500.0);
  const std::string maps = k_.numa_maps(pid_);
  EXPECT_NE(maps.find("interleave"), std::string::npos);
  EXPECT_NE(maps.find("anon=4"), std::string::npos);
  EXPECT_NE(maps.find("N0=1"), std::string::npos);
  EXPECT_NE(maps.find("N3=1"), std::string::npos);
  EXPECT_NE(maps.find("[heap]"), std::string::npos);
}

TEST_F(KernelTest, RemoteStreamSlowerThanLocal) {
  ThreadCtx local = ctx_on(0);
  ThreadCtx remote = ctx_on(12);  // node 3, two hops from node 0
  const std::uint64_t len = 64 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(local, len, vm::Prot::kReadWrite,
                                  vm::MemPolicy::bind(topo::node_mask_of(0)));
  k_.access(local, a, len, vm::Prot::kWrite, 3500.0);

  local.clock = sim::seconds(100);  // hardware idle by then
  local.stats.reset();
  k_.access(local, a, len, vm::Prot::kRead, 3500.0);
  const sim::Time local_time = local.clock - sim::seconds(100);

  remote.clock = sim::seconds(200);
  k_.access(remote, a, len, vm::Prot::kRead, 3500.0);
  const sim::Time remote_time = remote.clock - sim::seconds(200);
  EXPECT_GT(remote_time, local_time);
  // Within an order of magnitude of the NUMA factor.
  EXPECT_LT(remote_time, 2 * local_time);
}

TEST_F(KernelTest, AccessStridedFaultsAndCharges) {
  ThreadCtx t = ctx_on(0);
  // 16 rows of 1 KiB with a 16 KiB stride: touches 16 distinct pages.
  const std::uint64_t stride = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, 16 * stride, vm::Prot::kReadWrite);
  const AccessResult r =
      k_.access_strided(t, a, 16, 1024, stride, vm::Prot::kWrite, 3500.0, 1.0);
  EXPECT_EQ(r.minor_faults, 16u);
  EXPECT_GT(t.stats.get(sim::CostKind::kMemAccess), 0u);

  // traffic_scale multiplies the data-plane charge. Start each probe at an
  // instant where the hardware timelines are idle so queueing doesn't skew it.
  ThreadCtx t2 = ctx_on(0);
  t2.clock = sim::seconds(100);
  k_.access_strided(t2, a, 16, 1024, stride, vm::Prot::kRead, 3500.0, 1.0);
  ThreadCtx t3 = ctx_on(0);
  t3.clock = sim::seconds(200);
  k_.access_strided(t3, a, 16, 1024, stride, vm::Prot::kRead, 3500.0, 8.0);
  EXPECT_GT(t3.stats.get(sim::CostKind::kMemAccess),
            4 * t2.stats.get(sim::CostKind::kMemAccess));
}

TEST_F(KernelTest, AllocationFallsBackWhenNodeFull) {
  Kernel small(KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom,
                           .max_frames_per_node = 4});
  const Pid pid = small.create_process();
  ThreadCtx t;
  t.pid = pid;
  t.core = 0;
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = small.sys_mmap(t, len, vm::Prot::kReadWrite,
                                     vm::MemPolicy::bind(topo::node_mask_of(0)));
  small.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(small.pages_on_node(pid, a, len, 0), 4u);
  EXPECT_GT(small.phys().fallback_allocs(), 0u);
}

TEST_F(KernelTest, SyscallErrorReturns) {
  ThreadCtx t = ctx_on(0);
  EXPECT_EQ(k_.sys_munmap(t, 0x1000, 0), -kEINVAL);
  EXPECT_EQ(k_.sys_madvise(t, 0x100, mem::kPageSize, Advice::kNormal), -kENOMEM);
  EXPECT_EQ(k_.sys_mbind(t, 0x100, mem::kPageSize, vm::MemPolicy::bind(1)), -kENOMEM);
  const vm::Vaddr a = k_.sys_mmap(t, mem::kPageSize, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.sys_mbind(t, a, mem::kPageSize, vm::MemPolicy{vm::PolicyMode::kBind, 0}),
            -kEINVAL);
  EXPECT_EQ(k_.sys_set_mempolicy(t, vm::MemPolicy{vm::PolicyMode::kInterleave, 0}),
            -kEINVAL);
  EXPECT_EQ(k_.sys_migrate_pages(t, 999, 1, 2), -kESRCH);
  EXPECT_EQ(k_.sys_migrate_pages(t, pid_, 0, 2), -kEINVAL);
}

TEST_F(KernelTest, MbindAffectsFuturePlacement) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  EXPECT_EQ(k_.sys_mbind(t, a, len, vm::MemPolicy::bind(topo::node_mask_of(2))), 0);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 4u);
}

// Property sweep: for any request size, linear move_pages lands every page
// on its requested node and preserves contents.
class MovePagesProperty : public KernelTest,
                          public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(MovePagesProperty, MigrationIsCorrectAtAnySize) {
  const std::uint64_t npages = GetParam();
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i)
    payload[i] = static_cast<std::byte>((i * 2654435761u) >> 3);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  // Scatter: page i goes to node i % 4.
  const auto pages = pages_of(a, len);
  std::vector<topo::NodeId> nodes(pages.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    nodes[i] = static_cast<topo::NodeId>(i % 4);
  std::vector<int> status(pages.size(), -1);
  ASSERT_EQ(k_.sys_move_pages(t, pages, nodes, status), 0);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(status[i], static_cast<int>(i % 4));
    EXPECT_EQ(k_.page_node(pid_, pages[i]), i % 4);
  }
  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MovePagesProperty,
                         ::testing::Values(1, 3, 63, 64, 65, 128, 1000));

// Property sweep: next-touch marking + touching from every node always ends
// with the pages local to the toucher.
class NextTouchProperty
    : public KernelTest,
      public ::testing::WithParamInterface<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(NextTouchProperty, PagesFollowTheToucher) {
  const auto [npages, core] = GetParam();
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len, Advice::kMigrateOnNextTouch), 0);

  ThreadCtx t = ctx_on(core);
  k_.access(t, a, len, vm::Prot::kReadWrite, 3500.0);
  const topo::NodeId node = topo_.node_of_core(core);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, node), npages);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCores, NextTouchProperty,
    ::testing::Combine(::testing::Values(1, 7, 64, 200),
                       ::testing::Values(0u, 2u, 5u, 10u, 15u)));

// --- move_pages nr_pages == 0 fast path --------------------------------------

TEST_F(KernelTest, MovePagesEmptyArrayReturnsBeforeMmapSem) {
  // Linux's sys_move_pages returns for nr_pages == 0 before taking mmap_sem;
  // the simulation must charge only the syscall entry, never
  // move_pages_base_locked (which the old model wrongly billed here).
  ThreadCtx t = ctx_on(0);
  const sim::Time t0 = t.clock;
  const SyscallResult r = k_.sys_move_pages(t, {}, {}, {});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.count(), 0);
  EXPECT_EQ(t.clock - t0, k_.cost().syscall_entry);
}

// --- compressed placement counts ---------------------------------------------

TEST_F(KernelTest, PlacementCountsMatchPerPageWalkAcrossChunks) {
  // Span several 512-page chunks with ragged edges so pages_on_node exercises
  // both the per-chunk counter path and the edge walks, then cross-check every
  // answer against a per-page page_node() count through a lifecycle of
  // first-touch, explicit migration, dontneed, and partial munmap. validate()
  // audits the maintained counters against the page table at every step.
  ThreadCtx t = ctx_on(0);
  const std::uint64_t npages = 3 * vm::PageTable::kChunkPages + 77;
  const std::uint64_t len = npages * mem::kPageSize;
  const vm::Vaddr a =
      k_.sys_mmap(t, len, vm::Prot::kReadWrite,
                  vm::MemPolicy::interleave(topo_.all_nodes_mask()));
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);

  auto manual = [&](vm::Vaddr addr, std::uint64_t l, topo::NodeId n) {
    std::uint64_t c = 0;
    for (vm::Vaddr p : pages_of(addr, l))
      if (k_.page_node(pid_, p) == n) ++c;
    return c;
  };
  auto check_all = [&](vm::Vaddr addr, std::uint64_t l) {
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
      EXPECT_EQ(k_.pages_on_node(pid_, addr, l, n), manual(addr, l, n));
    k_.validate(pid_);
  };
  check_all(a, len);
  // Misaligned sub-range straddling chunk boundaries.
  check_all(a + 13 * mem::kPageSize, len - 200 * mem::kPageSize);

  // Migrate a stripe crossing the first chunk boundary.
  std::vector<vm::Vaddr> pages;
  for (std::uint64_t i = 500; i < 530; ++i)
    pages.push_back(a + i * mem::kPageSize);
  const std::vector<topo::NodeId> nodes(pages.size(), 3);
  std::vector<int> status(pages.size());
  ASSERT_TRUE(k_.sys_move_pages(t, pages, nodes, status).ok());
  check_all(a, len);

  // Drop a middle stripe, then unmap a ragged tail.
  ASSERT_EQ(k_.sys_madvise(t, a + 600 * mem::kPageSize, 100 * mem::kPageSize,
                           Advice::kDontNeed),
            0);
  check_all(a, len);
  ASSERT_EQ(k_.sys_munmap(t, a + (npages - 300) * mem::kPageSize,
                          300 * mem::kPageSize),
            0);
  check_all(a, (npages - 300) * mem::kPageSize);
}

// --- the access walk shared by access() and access_strided() ------------------

TEST_F(KernelTest, AccessLenZeroTouchesNothing) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const sim::Time before = t.clock;
  const AccessResult r = k_.access(t, a, 0, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.pages, 0u);
  EXPECT_EQ(r.minor_faults, 0u);
  // Zero rows and zero-byte rows are the strided path's empty extents.
  EXPECT_EQ(k_.access_strided(t, a, 0, 1024, mem::kPageSize, vm::Prot::kRead,
                              3500.0).pages,
            0u);
  EXPECT_EQ(k_.access_strided(t, a, 4, 0, mem::kPageSize, vm::Prot::kRead,
                              3500.0).pages,
            0u);
  EXPECT_EQ(t.clock, before);
  EXPECT_EQ(k_.stats().minor_faults, 0u);
  EXPECT_EQ(pte_of(a), nullptr);
}

TEST_F(KernelTest, StridedNodeBucketsAreOverwrittenAndSizeChecked) {
  ThreadCtx t = ctx_on(4);
  const vm::Vaddr a = k_.sys_mmap(t, 4 * mem::kPageSize, vm::Prot::kReadWrite);
  std::vector<std::uint64_t> by_node(topo_.num_nodes(), 7);
  k_.access_strided(t, a, 2, 1024, 2 * mem::kPageSize, vm::Prot::kWrite, 0.0,
                    1.0, by_node);
  EXPECT_EQ(by_node, (std::vector<std::uint64_t>{0, 2048, 0, 0}));
  // An empty extent still overwrites: callers may reuse one buffer.
  k_.access_strided(t, a, 0, 1024, mem::kPageSize, vm::Prot::kRead, 0.0, 1.0,
                    by_node);
  EXPECT_EQ(by_node, std::vector<std::uint64_t>(topo_.num_nodes(), 0));
  std::vector<std::uint64_t> short_buckets(topo_.num_nodes() - 1);
  EXPECT_THROW(k_.access_strided(t, a, 1, 1024, mem::kPageSize,
                                 vm::Prot::kRead, 0.0, 1.0, short_buckets),
               std::invalid_argument);
}

TEST_F(KernelTest, AccessChunkBoundarySpanWithMidExtentFault) {
  // > 512 pages guarantees the extent crosses at least one page-table chunk
  // boundary wherever mmap placed it.
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t pages = 1200;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k_.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  // Drop one page in the middle of the extent, past the first chunk.
  const vm::Vaddr hole = a + 700 * mem::kPageSize;
  ASSERT_EQ(k_.sys_madvise(t0, hole, mem::kPageSize, Advice::kDontNeed), 0);

  // A node-1 reader refaults the hole mid-extent and walks on past it.
  ThreadCtx t1 = ctx_on(4);
  const AccessResult r = k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.pages, pages);
  EXPECT_EQ(r.minor_faults, 1u);
  EXPECT_EQ(k_.page_node(pid_, hole), 1u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), pages - 1);
  EXPECT_GT(t1.stats.get(sim::CostKind::kPageFault), 0u);
  EXPECT_NO_THROW(k_.validate(t1));
}

TEST_F(KernelTest, WriteAfterReadPopulateDirtiesAndStampsEveryPage) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t pages = 8;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // populate clean pages
  for (vm::Vaddr p : pages_of(a, len)) {
    ASSERT_NE(pte_of(p), nullptr);
    EXPECT_FALSE(pte_of(p)->flags & vm::Pte::kDirty);
    EXPECT_EQ(pte_of(p)->write_gen, 0u);
  }
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  for (vm::Vaddr p : pages_of(a, len)) {
    EXPECT_TRUE(pte_of(p)->flags & vm::Pte::kDirty);
    EXPECT_EQ(pte_of(p)->write_gen, 1u);
  }
  // The strided path stamps through the same walk: 1 KiB of every other page.
  k_.access_strided(t, a, pages / 2, 1024, 2 * mem::kPageSize, vm::Prot::kWrite,
                    3500.0);
  for (std::uint64_t i = 0; i < pages; ++i)
    EXPECT_EQ(pte_of(a + i * mem::kPageSize)->write_gen, i % 2 == 0 ? 2u : 1u);
}

TEST_F(KernelTest, StridedSingleRowChargesLikeAccess) {
  // A fault-free single-node extent is one stream either way: access()
  // flushes one run, access_strided() one node bucket. Probe at idle
  // instants so queueing cannot skew the comparison.
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 64 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  const vm::Vaddr start = a + 100;
  const std::uint64_t bytes = 5 * mem::kPageSize + 300;  // ragged both ends
  ThreadCtx t1 = ctx_on(4);
  t1.clock = sim::seconds(100);
  const AccessResult r1 = k_.access(t1, start, bytes, vm::Prot::kRead, 3500.0);
  ThreadCtx t2 = ctx_on(4);
  t2.clock = sim::seconds(200);
  const AccessResult r2 = k_.access_strided(t2, start, 1, bytes, bytes,
                                            vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r1.pages, 6u);
  EXPECT_EQ(r2.pages, 6u);
  EXPECT_EQ(t1.clock - sim::seconds(100), t2.clock - sim::seconds(200));
}

TEST_F(KernelTest, StridedRowsSpanChunkBoundaryAndFaultMidRow) {
  ThreadCtx t0 = ctx_on(0);
  const std::uint64_t rows = 2;
  const std::uint64_t row_pages = 1100;  // each row crosses a chunk boundary
  const std::uint64_t stride = 1200 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t0, rows * stride, vm::Prot::kReadWrite);
  k_.access(t0, a, rows * stride, vm::Prot::kWrite, 3500.0);
  for (std::uint64_t r = 0; r < rows; ++r)
    ASSERT_EQ(k_.sys_madvise(t0, a + r * stride + 700 * mem::kPageSize,
                             mem::kPageSize, Advice::kDontNeed),
              0);

  // Rows start 100 bytes into a page, so their first and last pages are
  // partial; each row's hole is a whole interior page refaulted on node 1.
  ThreadCtx t1 = ctx_on(4);
  const std::uint64_t row_bytes = row_pages * mem::kPageSize - 200;
  std::vector<std::uint64_t> by_node(topo_.num_nodes());
  const AccessResult res =
      k_.access_strided(t1, a + 100, rows, row_bytes, stride, vm::Prot::kRead,
                        0.0, 1.0, by_node);
  EXPECT_EQ(res.pages, rows * row_pages);
  EXPECT_EQ(res.minor_faults, rows);
  ASSERT_EQ(by_node.size(), topo_.num_nodes());
  EXPECT_EQ(by_node[1], rows * mem::kPageSize);
  EXPECT_EQ(by_node[0], rows * (row_bytes - mem::kPageSize));
  for (std::uint64_t r = 0; r < rows; ++r)
    EXPECT_EQ(k_.page_node(pid_, a + r * stride + 700 * mem::kPageSize), 1u);
  EXPECT_NO_THROW(k_.validate(t1));
}

TEST_F(KernelTest, StridedReadServesReplicasInsideARow) {
  Kernel k(KernelConfig{.topology = topo_,
                        .backing = mem::Backing::kMaterialized,
                        .replication = true});
  ThreadCtx t0;
  t0.pid = k.create_process("repl");
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite);
  k.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(k.sys_madvise(t0, a, len, Advice::kReplicate), 0);

  // Two rows of two pages' bytes starting mid-page: pages 0-2 and 4-6.
  ThreadCtx t1 = t0;
  t1.core = 4;
  t1.clock = sim::seconds(1);
  const std::uint64_t row_bytes = 2 * mem::kPageSize;
  std::vector<std::uint64_t> by_node(topo_.num_nodes());
  for (int pass = 0; pass < 2; ++pass) {
    const AccessResult r =
        k.access_strided(t1, a + 512, 2, row_bytes, 4 * mem::kPageSize,
                          vm::Prot::kRead, 0.0, 1.0, by_node);
    EXPECT_EQ(r.pages, 6u);
    // Every byte is served from node 1's replicas, made on the first pass.
    EXPECT_EQ(by_node[1], 2 * row_bytes);
    EXPECT_EQ(by_node[0], 0u);
    EXPECT_EQ(k.replica_pages(t0.pid), 6u);
  }
  EXPECT_EQ(k.pages_on_node(t0.pid, a, len, 0), 8u);  // homes stay put
  EXPECT_NO_THROW(k.validate(t1));
}

// --- differential: one multi-row strided call vs one call per row -----------
//
// LU-shaped tiles go through one access_strided() call on one kernel and
// through one single-row call per row on a twin kernel built by the same
// operations. How rows are batched must not show: results, per-node bytes,
// kernel counters and every PTE agree after each tile.
class StridedTwinTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kChunk = vm::PageTable::kChunkPages;
  static constexpr std::uint64_t kRegionPages = 4 * kChunk + 64;

  struct Twin {
    explicit Twin(const topo::Topology& topo)
        : k(KernelConfig{.topology = topo,
                         .backing = mem::Backing::kPhantom,
                         .replication = true}) {
      pid = k.create_process("twin");
      // Repairs an mprotect-narrowed page, as the user-space next-touch
      // library's handler does.
      k.set_sigsegv_handler(pid, [this](ThreadCtx& t, const SigInfo& si) {
        const vm::Vaddr page = vm::addr_of(vm::vpn_of(si.fault_addr));
        k.sys_mprotect(t, page, mem::kPageSize, vm::Prot::kReadWrite);
      });
    }
    ThreadCtx on(topo::CoreId core) const {
      ThreadCtx t;
      t.pid = pid;
      t.core = core;
      return t;
    }
    Kernel k;
    Pid pid = 0;
  };

  struct Tile {
    std::uint64_t first_page = 0;  ///< region page of row 0
    std::uint64_t offset = 0;      ///< bytes into that page
    std::uint64_t rows = 0;
    std::uint64_t row_bytes = 0;
    std::uint64_t stride = 0;
    vm::Prot want = vm::Prot::kRead;
    topo::CoreId core = 0;
  };

  /// Same operations on both twins: a page-interleaved region (the static
  /// LU matrix layout), written from node 0 except for one whole chunk in
  /// the middle, which is never established.
  StridedTwinTest() {
    for (Twin* tw : {&one_, &per_row_}) {
      ThreadCtx t = tw->on(0);
      base_ = tw->k.sys_mmap(t, kRegionPages * mem::kPageSize,
                             vm::Prot::kReadWrite,
                             vm::MemPolicy::interleave(topo_.all_nodes_mask()));
      const vm::Vpn first = vm::vpn_of(base_);
      hole_lo_ = ((first + kChunk - 1) / kChunk + 1) * kChunk - first;
      tw->k.access(t, base_, hole_lo_ * mem::kPageSize, vm::Prot::kWrite, 0.0);
      const std::uint64_t hi = hole_lo_ + kChunk;
      tw->k.access(t, page(hi), (kRegionPages - hi) * mem::kPageSize,
                   vm::Prot::kWrite, 0.0);
    }
  }

  vm::Vaddr page(std::uint64_t i) const { return base_ + i * mem::kPageSize; }

  void apply(const std::function<void(Twin&)>& op) {
    op(one_);
    op(per_row_);
  }

  void run_and_compare(const Tile& tile) {
    const vm::Vaddr start = page(tile.first_page) + tile.offset;
    ThreadCtx t1 = one_.on(tile.core);
    std::vector<std::uint64_t> nodes1(topo_.num_nodes());
    const AccessResult r1 =
        one_.k.access_strided(t1, start, tile.rows, tile.row_bytes, tile.stride,
                              tile.want, 0.0, 1.0, nodes1);

    ThreadCtx t2 = per_row_.on(tile.core);
    AccessResult r2;
    std::vector<std::uint64_t> nodes2(topo_.num_nodes(), 0);
    for (std::uint64_t r = 0; r < tile.rows; ++r) {
      std::vector<std::uint64_t> row_nodes(topo_.num_nodes());
      const AccessResult rr = per_row_.k.access_strided(
          t2, start + r * tile.stride, 1, tile.row_bytes, tile.stride,
          tile.want, 0.0, 1.0, row_nodes);
      r2.pages += rr.pages;
      r2.minor_faults += rr.minor_faults;
      r2.nexttouch_migrations += rr.nexttouch_migrations;
      r2.nexttouch_hits_local += rr.nexttouch_hits_local;
      r2.sigsegv_delivered += rr.sigsegv_delivered;
      for (std::size_t n = 0; n < nodes2.size(); ++n) nodes2[n] += row_nodes[n];
    }

    EXPECT_EQ(r1.pages, r2.pages);
    EXPECT_EQ(r1.minor_faults, r2.minor_faults);
    EXPECT_EQ(r1.nexttouch_migrations, r2.nexttouch_migrations);
    EXPECT_EQ(r1.nexttouch_hits_local, r2.nexttouch_hits_local);
    EXPECT_EQ(r1.sigsegv_delivered, r2.sigsegv_delivered);
    EXPECT_EQ(nodes1, nodes2);
    EXPECT_EQ(stats_words(one_.k.stats()), stats_words(per_row_.k.stats()));
    const vm::PageTable& pt1 = one_.k.address_space(one_.pid).page_table();
    const vm::PageTable& pt2 = per_row_.k.address_space(per_row_.pid).page_table();
    for (std::uint64_t i = 0; i < kRegionPages; ++i) {
      const vm::Vpn vpn = vm::vpn_of(page(i));
      const vm::Pte* p1 = pt1.find(vpn);
      const vm::Pte* p2 = pt2.find(vpn);
      ASSERT_EQ(p1 == nullptr, p2 == nullptr) << "page " << i;
      if (p1 == nullptr) continue;
      EXPECT_EQ(p1->flags, p2->flags) << "page " << i;
      EXPECT_EQ(p1->write_gen, p2->write_gen) << "page " << i;
      EXPECT_EQ(one_.k.page_node(one_.pid, page(i)),
                per_row_.k.page_node(per_row_.pid, page(i)))
          << "page " << i;
    }
    EXPECT_NO_THROW(one_.k.validate(t1));
    EXPECT_NO_THROW(per_row_.k.validate(t2));
  }

  static std::vector<std::uint64_t> stats_words(const KernelStats& s) {
    static_assert(sizeof(KernelStats) % sizeof(std::uint64_t) == 0);
    std::vector<std::uint64_t> w(sizeof(KernelStats) / sizeof(std::uint64_t));
    std::memcpy(w.data(), &s, sizeof(KernelStats));
    return w;
  }

  topo::Topology topo_ = topo::Topology::quad_opteron();
  Twin one_{topo_};
  Twin per_row_{topo_};
  vm::Vaddr base_ = 0;
  std::uint64_t hole_lo_ = 0;  ///< region page where the unmapped chunk starts
};

TEST_F(StridedTwinTest, LuRowsAcrossChunksWithUnestablishedChunk) {
  // 1 KiB rows at a 16-page stride (the 8k/128 LU tile shape): 132 rows
  // cross four chunks, one of them never established, so its rows
  // first-touch mid-tile.
  ASSERT_EQ(one_.k.address_space(one_.pid).page_table().find(
                vm::vpn_of(page(hole_lo_))),
            nullptr);
  run_and_compare({.first_page = 0, .offset = 256, .rows = kRegionPages / 16,
                   .row_bytes = 1024, .stride = 16 * mem::kPageSize,
                   .want = vm::Prot::kReadWrite, .core = 4});
  const vm::Vpn hole = vm::vpn_of(page(hole_lo_));
  EXPECT_EQ(one_.k.address_space(one_.pid).page_table().count_present(
                hole, hole + kChunk),
            kChunk / 16);
}

TEST_F(StridedTwinTest, SubPageStrideSharesPages) {
  run_and_compare({.first_page = 3, .offset = 0, .rows = 64,
                   .row_bytes = 1024, .stride = 2048,
                   .want = vm::Prot::kReadWrite, .core = 8});
}

TEST_F(StridedTwinTest, RowsSpanningTwoPages) {
  // 4 KiB rows starting mid-page (the 16k/1024 shape), crossing the
  // unestablished chunk's edge.
  run_and_compare({.first_page = hole_lo_ - 200, .offset = 2048, .rows = 60,
                   .row_bytes = mem::kPageSize, .stride = 8 * mem::kPageSize,
                   .want = vm::Prot::kRead, .core = 12});
}

TEST_F(StridedTwinTest, NextTouchSubsetRemoteAndLocal) {
  // Interleaved pages: a quarter of the marked ones are already on the
  // reader's node 1 (local hits), the rest migrate.
  const std::uint64_t lo = hole_lo_ + kChunk;
  apply([&](Twin& tw) {
    ThreadCtx t = tw.on(0);
    ASSERT_EQ(tw.k.sys_madvise(t, page(lo + 40), 300 * mem::kPageSize,
                               Advice::kMigrateOnNextTouch),
              0);
  });
  run_and_compare({.first_page = lo, .offset = 512, .rows = 120,
                   .row_bytes = 1024, .stride = 3 * mem::kPageSize,
                   .want = vm::Prot::kRead, .core = 5});
  EXPECT_GT(one_.k.stats().pages_migrated_nexttouch, 0u);
  EXPECT_GT(one_.k.stats().nexttouch_faults,
            one_.k.stats().pages_migrated_nexttouch);
}

TEST_F(StridedTwinTest, MprotectNarrowedRowFaultsAndRepairs) {
  apply([&](Twin& tw) {
    ThreadCtx t = tw.on(0);
    ASSERT_EQ(tw.k.sys_mprotect(t, page(64), 2 * mem::kPageSize,
                                vm::Prot::kRead),
              0);
  });
  run_and_compare({.first_page = 0, .offset = 0, .rows = 40,
                   .row_bytes = 2048, .stride = 4 * mem::kPageSize,
                   .want = vm::Prot::kWrite, .core = 1});
  EXPECT_GT(one_.k.stats().signals_delivered, 0u);
}

TEST_F(StridedTwinTest, ReplicaReads) {
  const std::uint64_t lo = hole_lo_ + kChunk + 100;
  apply([&](Twin& tw) {
    ThreadCtx t = tw.on(0);
    ASSERT_EQ(tw.k.sys_madvise(t, page(lo), 64 * mem::kPageSize,
                               Advice::kReplicate),
              0);
  });
  for (topo::CoreId core : {12u, 12u, 4u}) {
    run_and_compare({.first_page = lo - 10, .offset = 100, .rows = 40,
                     .row_bytes = 2048, .stride = 2 * mem::kPageSize,
                     .want = vm::Prot::kRead, .core = core});
  }
  EXPECT_GT(one_.k.replica_pages(one_.pid), 0u);
}

TEST_F(KernelTest, ValidateThreadRejectsForeignNumabCache) {
  ThreadCtx bare = ctx_on(0);
  EXPECT_NO_THROW(k_.validate(bare));  // no cache yet
  NumabTaskStats stray;
  bare.numab_ts = &stray;
  EXPECT_THROW(k_.validate(bare), std::logic_error);

  // A hint fault fills the cache with the thread's own table entry.
  KernelConfig cfg{.topology = topo_, .backing = mem::Backing::kPhantom};
  cfg.numa_balancing.enabled = true;
  cfg.numa_balancing.scan_period = sim::microseconds(100);
  cfg.numa_balancing.scan_size_pages = 1024;
  Kernel k(cfg);
  ThreadCtx t;
  t.pid = k.create_process();
  t.tid = 7;
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t, len, vm::Prot::kReadWrite);
  k.access(t, a, len, vm::Prot::kWrite, 0.0);
  t.clock += cfg.numa_balancing.scan_period;
  k.access(t, a, len, vm::Prot::kRead, 0.0);
  ASSERT_GT(k.stats().numab_hint_faults, 0u);
  ASSERT_NE(t.numab_ts, nullptr);
  EXPECT_NO_THROW(k.validate(t));
  // Another thread holding tid 7's entry is corrupt.
  ThreadCtx other = t;
  other.tid = 8;
  EXPECT_THROW(k.validate(other), std::logic_error);
}

}  // namespace
}  // namespace numasim::kern
