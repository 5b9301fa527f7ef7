// Tests for the user-space library: NumaBuffer allocation, lazy and
// synchronous migration, and the mprotect/SIGSEGV user next-touch (paper
// Fig. 1).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "lib/numalib.hpp"
#include "lib/user_next_touch.hpp"
#include "rt/machine.hpp"
#include "rt/thread.hpp"

namespace numasim::lib {
namespace {

class LibTest : public ::testing::Test {
 protected:
  LibTest() : topo_(topo::Topology::quad_opteron()),
              k_(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized}) {
    pid_ = k_.create_process("lib-test");
  }

  kern::ThreadCtx ctx_on(topo::CoreId core) {
    kern::ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  topo::Topology topo_;
  kern::Kernel k_;
  kern::Pid pid_ = 0;
};

TEST_F(LibTest, AllocOnNodePlacesThere) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t, k_, len, 3, "buf");
  b.populate(t);
  EXPECT_EQ(k_.pages_on_node(pid_, b.addr(), len, 3), 16u);
  EXPECT_EQ(b.free(t), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
}

TEST_F(LibTest, AllocInterleavedSpreads) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::interleaved(t, k_, len);
  b.populate(t);
  for (topo::NodeId n = 0; n < 4; ++n)
    EXPECT_EQ(k_.pages_on_node(pid_, b.addr(), len, n), 4u);
}

TEST_F(LibTest, AllocLocalFollowsFirstTouch) {
  kern::ThreadCtx t = ctx_on(10);  // node 2
  const std::uint64_t len = 4 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::local(t, k_, len);
  b.populate(t);
  EXPECT_EQ(k_.pages_on_node(pid_, b.addr(), len, 2), 4u);
}

TEST_F(LibTest, SyncMigrateMovesRange) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 32 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t, k_, len, 0);
  b.populate(t);
  EXPECT_EQ(b.sync_migrate(t, 2), 32);
  EXPECT_EQ(k_.pages_on_node(pid_, b.addr(), len, 2), 32u);
}

TEST_F(LibTest, LazyMigrateMarksAndFollowsToucher) {
  kern::ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t0, k_, len, 0);
  b.populate(t0);
  const vm::Vaddr a = b.addr();
  EXPECT_EQ(b.lazy_migrate(t0), 0);

  kern::ThreadCtx t1 = ctx_on(6);  // node 1
  k_.access(t1, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 1), 16u);
}

TEST_F(LibTest, UserNextTouchWholeRegionOnOneFault) {
  kern::ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 64 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t0, k_, len, 0);
  b.populate(t0);
  const vm::Vaddr a = b.addr();
  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::byte>(3 * i);
  ASSERT_TRUE(k_.poke(pid_, a, payload));

  UserNextTouch unt(k_, pid_);
  EXPECT_EQ(unt.mark(t0, a, len), 0);
  EXPECT_EQ(unt.armed_bytes(), len);

  // One touch from node 2 migrates the whole region via the handler.
  kern::ThreadCtx t2 = ctx_on(8);
  const kern::AccessResult r = k_.access(t2, a + 5 * mem::kPageSize, 8,
                                         vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.sigsegv_delivered, 1u);
  EXPECT_EQ(unt.stats().faults_handled, 1u);
  EXPECT_EQ(unt.stats().pages_moved, 64u);
  EXPECT_EQ(unt.armed_bytes(), 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), 64u);

  std::vector<std::byte> readback(len);
  ASSERT_TRUE(k_.peek(pid_, a, readback));
  EXPECT_EQ(readback, payload);

  // Protection restored: further touches are fault-free.
  const kern::AccessResult r2 = k_.access(t2, a, len, vm::Prot::kReadWrite, 3500.0);
  EXPECT_EQ(r2.sigsegv_delivered, 0u);
}

TEST_F(LibTest, UserNextTouchGranuleMigratesWindowOnly) {
  kern::ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 64 * mem::kPageSize;
  const std::uint64_t granule = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t0, k_, len, 0);
  b.populate(t0);
  const vm::Vaddr a = b.addr();

  UserNextTouch unt(k_, pid_);
  ASSERT_EQ(unt.mark(t0, a, len, granule), 0);

  // Fault in the third granule from node 3.
  kern::ThreadCtx t3 = ctx_on(12);
  k_.access(t3, a + 2 * granule + 123, 8, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(unt.stats().pages_moved, 16u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 3), 16u);
  EXPECT_EQ(k_.pages_on_node(pid_, a + 2 * granule, granule, 3), 16u);
  EXPECT_EQ(unt.armed_bytes(), len - granule);

  // Another thread takes the first granule.
  kern::ThreadCtx t1 = ctx_on(4);
  k_.access(t1, a, 8, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.pages_on_node(pid_, a, granule, 1), 16u);
  EXPECT_EQ(unt.armed_bytes(), len - 2 * granule);
}

TEST_F(LibTest, UserNextTouchRejectsOverlapAndBadArgs) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t, k_, len, 0);
  b.populate(t);
  const vm::Vaddr a = b.addr();
  UserNextTouch unt(k_, pid_);
  EXPECT_EQ(unt.mark(t, a, len), 0);
  EXPECT_EQ(unt.mark(t, a + mem::kPageSize, mem::kPageSize), -kern::kEBUSY);
  EXPECT_EQ(unt.mark(t, a, 0), -kern::kEINVAL);
  // Unaligned granule is rejected before the overlap check.
  EXPECT_EQ(unt.mark(t, a, len, 100), -kern::kEINVAL);
}

TEST_F(LibTest, UserNextTouchCancelRestoresProtection) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t, k_, len, 0);
  b.populate(t);
  const vm::Vaddr a = b.addr();
  UserNextTouch unt(k_, pid_);
  ASSERT_EQ(unt.mark(t, a, len), 0);
  ASSERT_EQ(unt.cancel(t, a, len), 0);
  EXPECT_EQ(unt.armed_bytes(), 0u);
  // No fault, no migration.
  kern::ThreadCtx t2 = ctx_on(8);
  const kern::AccessResult r = k_.access(t2, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.sigsegv_delivered, 0u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 0), 8u);
}

TEST_F(LibTest, FaultOutsideArmedRegionStillFatal) {
  kern::ThreadCtx t = ctx_on(0);
  UserNextTouch unt(k_, pid_);
  EXPECT_THROW(k_.access(t, 0x40, 8, vm::Prot::kRead, 3500.0), kern::SegfaultError);
}

// --- NumaBuffer RAII handle --------------------------------------------------

TEST_F(LibTest, NumaBufferFreesOnDestruction) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  {
    NumaBuffer b = NumaBuffer::on_node(t, k_, len, 3, "raii");
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(b.size(), len);
    EXPECT_EQ(b.node(), 3u);
    b.populate(t);
    EXPECT_EQ(b.pages_on(3), 16u);
    EXPECT_EQ(k_.phys().total_used_frames(), 16u);
  }
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
}

TEST_F(LibTest, NumaBufferMoveTransfersOwnership) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  NumaBuffer a = NumaBuffer::on_node(t, k_, len, 1, "mv");
  a.populate(t);
  const vm::Vaddr addr = a.addr();

  NumaBuffer b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.addr(), addr);
  EXPECT_EQ(b.pages_on(1), 8u);

  NumaBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.addr(), addr);
  EXPECT_EQ(k_.phys().total_used_frames(), 8u);
  EXPECT_EQ(c.free(t), 0);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
}

TEST_F(LibTest, NumaBufferSyncMigrateMoves) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 32 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t, k_, len, 0, "sync");
  b.populate(t);
  const kern::SyscallResult r = b.sync_migrate(t, 2);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.count(), 32);
  EXPECT_EQ(b.pages_on(2), 32u);
}

TEST_F(LibTest, NumaBufferLazyMigrateFollowsToucher) {
  kern::ThreadCtx t0 = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::on_node(t0, k_, len, 0, "lazy");
  b.populate(t0);
  EXPECT_TRUE(b.lazy_migrate(t0).ok());
  kern::ThreadCtx t1 = ctx_on(6);  // node 1
  k_.access(t1, b.addr(), b.size(), vm::Prot::kRead, 3500.0);
  EXPECT_EQ(b.pages_on(1), 16u);
}

TEST_F(LibTest, NumaBufferReleaseKeepsMapping) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  vm::Vaddr addr = 0;
  {
    NumaBuffer b = NumaBuffer::local(t, k_, len, "rel");
    b.populate(t);
    addr = b.release();
    EXPECT_FALSE(static_cast<bool>(b));
  }
  // Still mapped after the handle died; a plain munmap reclaims it.
  EXPECT_EQ(k_.phys().total_used_frames(), 4u);
  k_.sys_munmap(t, addr, len);
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
}

TEST_F(LibTest, NumaBufferInterleavedSpreads) {
  kern::ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 16 * mem::kPageSize;
  NumaBuffer b = NumaBuffer::interleaved(t, k_, len);
  EXPECT_EQ(b.node(), topo::kInvalidNode);
  b.populate(t);
  for (topo::NodeId n = 0; n < 4; ++n) EXPECT_EQ(b.pages_on(n), 4u);
}

// Property: for every granule size dividing the region, total pages moved
// after touching every granule equals the region size, each on its toucher.
class GranuleProperty : public LibTest,
                        public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(GranuleProperty, AllGranulesMigrateIndependently) {
  const std::uint64_t granule_pages = GetParam();
  const std::uint64_t npages = 32;
  const std::uint64_t len = npages * mem::kPageSize;
  const std::uint64_t granule = granule_pages * mem::kPageSize;

  kern::ThreadCtx t0 = ctx_on(0);
  NumaBuffer b = NumaBuffer::on_node(t0, k_, len, 0);
  b.populate(t0);
  const vm::Vaddr a = b.addr();
  UserNextTouch unt(k_, pid_);
  ASSERT_EQ(unt.mark(t0, a, len, granule), 0);

  for (std::uint64_t g = 0; g < npages / granule_pages; ++g) {
    const topo::CoreId core = static_cast<topo::CoreId>((g % 4) * 4);
    kern::ThreadCtx t = ctx_on(core);
    k_.access(t, a + g * granule, 8, vm::Prot::kRead, 3500.0);
    EXPECT_EQ(k_.pages_on_node(pid_, a + g * granule, granule,
                               topo_.node_of_core(core)),
              granule_pages);
  }
  EXPECT_EQ(unt.stats().pages_moved + /*granule 0 touch local*/ 0, npages);
  EXPECT_EQ(unt.armed_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Granules, GranuleProperty, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace numasim::lib
