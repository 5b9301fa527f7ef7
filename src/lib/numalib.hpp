// libnuma-flavoured user-space helpers over the simulated syscalls.
//
// The primary interface is the RAII `NumaBuffer` handle: it owns one mapped
// range, remembers its placement policy, exposes the paper's migration
// mechanisms as methods (lazy next-touch marking, synchronous move_pages),
// and releases the mapping when destroyed. Its factories are the simulated
// equivalents of libnuma's numa_alloc_onnode / numa_alloc_interleaved /
// numa_alloc_local.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "kern/kernel.hpp"

namespace numasim::lib {

/// RAII handle to one NUMA-placed allocation of a simulated process.
///
/// Operations that model user-visible work (populate, migrate, free) take
/// the calling ThreadCtx and charge simulated time. Destruction is the process-teardown path: it returns the
/// frames without a ThreadCtx and charges nothing — call `free(t)` instead
/// when the unmap itself is part of the measured workload.
class NumaBuffer {
 public:
  NumaBuffer() = default;

  /// Map `size` bytes bound to `node` (populated lazily on first touch).
  static NumaBuffer on_node(kern::ThreadCtx& t, kern::Kernel& k,
                            std::uint64_t size, topo::NodeId node,
                            std::string name = {});
  /// Map `size` bytes interleaved across all nodes.
  static NumaBuffer interleaved(kern::ThreadCtx& t, kern::Kernel& k,
                                std::uint64_t size, std::string name = {});
  /// Map `size` bytes with default policy (first touch decides placement).
  static NumaBuffer local(kern::ThreadCtx& t, kern::Kernel& k,
                          std::uint64_t size, std::string name = {});
  /// Map `size` bytes under the tier-preference policy (see
  /// lib::tier_preferred): fastest tier first, graceful spill down-tier.
  static NumaBuffer tiered(kern::ThreadCtx& t, kern::Kernel& k,
                           std::uint64_t size, topo::NodeMask allowed = 0,
                           std::string name = {});

  NumaBuffer(const NumaBuffer&) = delete;
  NumaBuffer& operator=(const NumaBuffer&) = delete;
  NumaBuffer(NumaBuffer&& o) noexcept { swap(o); }
  NumaBuffer& operator=(NumaBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      swap(o);
    }
    return *this;
  }
  ~NumaBuffer() { reset(); }

  vm::Vaddr addr() const { return addr_; }
  std::uint64_t size() const { return size_; }
  const vm::MemPolicy& policy() const { return policy_; }
  /// Binding node for on_node buffers; kInvalidNode otherwise.
  topo::NodeId node() const { return node_; }
  explicit operator bool() const { return addr_ != 0; }

  /// Fault the whole range in (one full-range write touch).
  void populate(kern::ThreadCtx& t);

  /// Lazy migration via kernel next-touch (paper Sec. 3.4): mark the buffer
  /// and let pages follow whichever thread touches them next.
  kern::SyscallResult lazy_migrate(kern::ThreadCtx& t);

  /// Synchronous migration of the whole buffer with move_pages. count() =
  /// pages whose status reports `node`.
  kern::SyscallResult sync_migrate(kern::ThreadCtx& t, topo::NodeId node);

  /// Present pages of the buffer currently on `node` (timing-free).
  std::uint64_t pages_on(topo::NodeId node) const;

  /// Charged munmap (the syscall the workload would issue); empties the
  /// handle.
  kern::SyscallResult free(kern::ThreadCtx& t);

  /// Give up ownership without unmapping; returns the address (for code
  /// managing raw Vaddrs).
  vm::Vaddr release() {
    const vm::Vaddr a = addr_;
    kernel_ = nullptr;
    addr_ = 0;
    size_ = 0;
    return a;
  }

 private:
  NumaBuffer(kern::Kernel& k, kern::Pid pid, vm::Vaddr addr, std::uint64_t size,
             vm::MemPolicy policy, topo::NodeId node)
      : kernel_(&k), pid_(pid), addr_(addr), size_(size), policy_(policy),
        node_(node) {}

  void reset() {
    if (kernel_ != nullptr && addr_ != 0)
      kernel_->teardown_unmap(pid_, addr_, size_);
    kernel_ = nullptr;
    addr_ = 0;
    size_ = 0;
  }

  void swap(NumaBuffer& o) {
    std::swap(kernel_, o.kernel_);
    std::swap(pid_, o.pid_);
    std::swap(addr_, o.addr_);
    std::swap(size_, o.size_);
    std::swap(policy_, o.policy_);
    std::swap(node_, o.node_);
  }

  kern::Kernel* kernel_ = nullptr;
  kern::Pid pid_ = 0;
  vm::Vaddr addr_ = 0;
  std::uint64_t size_ = 0;
  vm::MemPolicy policy_{};
  topo::NodeId node_ = topo::kInvalidNode;
};

/// Tier-preference mempolicy (MPOL_PREFERRED_MANY flavour): allocations try
/// the nodes of `allowed` ordered fastest-tier-first (ties broken by distance
/// from the faulting core, then node id) and spill down-tier instead of
/// failing when the fast nodes are full. `allowed == 0` means every node.
/// On a flat (untiered) machine this degrades to nearest-first placement,
/// i.e. first-touch with an explicit mask.
vm::MemPolicy tier_preferred(const topo::Topology& topo,
                             topo::NodeMask allowed = 0);

}  // namespace numasim::lib
