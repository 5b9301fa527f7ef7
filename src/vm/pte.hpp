// Page-table entry, with the paper's migrate-on-next-touch flag.
#pragma once

#include <cstdint>

#include "mem/phys.hpp"

namespace numasim::vm {

/// Access protection bits (subset of PROT_*).
enum class Prot : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};

constexpr Prot operator|(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
constexpr bool prot_allows(Prot have, Prot want) {
  return (static_cast<std::uint8_t>(have) & static_cast<std::uint8_t>(want)) ==
         static_cast<std::uint8_t>(want);
}

struct Pte {
  // Flag bits. kHwRead/kHwWrite are the *hardware* permissions in the PTE,
  // which may be narrower than the owning VMA's protection: both next-touch
  // implementations work by clearing them so the next access faults
  // (paper Figs. 1 and 2).
  static constexpr std::uint16_t kPresent = 1u << 0;
  static constexpr std::uint16_t kHwRead = 1u << 1;
  static constexpr std::uint16_t kHwWrite = 1u << 2;
  static constexpr std::uint16_t kAccessed = 1u << 3;
  static constexpr std::uint16_t kDirty = 1u << 4;
  /// The kernel next-touch marker (the paper's new madvise semantics).
  static constexpr std::uint16_t kNextTouch = 1u << 5;
  /// Extension: this PTE points at a read-only replica (see kern/replication).
  static constexpr std::uint16_t kReplica = 1u << 6;
  /// Extension: part of a 2 MiB huge mapping (populated as a block; not
  /// migratable, matching Linux circa 2009).
  static constexpr std::uint16_t kHuge = 1u << 7;
  /// AutoNUMA hint marker (pte_protnone): the scan clock cleared the hw
  /// bits so the next ordinary access takes a NUMA hint fault.
  static constexpr std::uint16_t kNumaHint = 1u << 8;
  /// A transactional migration (kern/txn_migrate) has write-protected this
  /// page between its shadow copy and the commit flip. A write fault clears
  /// it and restores write access immediately — the writer never waits for
  /// the migration; the verify step then sees the dirtied generation.
  static constexpr std::uint16_t kTxn = 1u << 9;

  /// `numa_last` value meaning "no hint fault recorded yet".
  static constexpr std::uint8_t kNoNumaNode = 0xFF;

  mem::FrameId frame = mem::kInvalidFrame;
  std::uint16_t flags = 0;
  /// Node of the last hint fault on this page (two-reference confirmation,
  /// like page_cpupid_last); kNoNumaNode until the first hint fault.
  std::uint8_t numa_last = kNoNumaNode;
  /// Scan windows this page has carried kNumaHint without a refault —
  /// cold-page evidence for tier demotion (saturating; reset on any hint
  /// fault and after a demotion).
  std::uint8_t numa_idle = 0;
  /// Write-generation stamp: bumped on every write access (and poke). The
  /// transactional migrator snapshots it before the shadow copy and
  /// re-verifies it before the commit flip — the simulated dirty-bit race
  /// window. Generation counting subsumes timestamping the last write: any
  /// write after the snapshot changes the generation.
  std::uint32_t write_gen = 0;

  bool present() const { return flags & kPresent; }
  bool next_touch() const { return flags & kNextTouch; }
  bool numa_hint() const { return flags & kNumaHint; }
  bool hw_allows(Prot want) const {
    if (!present()) return false;
    if (prot_allows(want, Prot::kWrite) && !(flags & kHwWrite)) return false;
    if (prot_allows(want, Prot::kRead) && !(flags & kHwRead)) return false;
    return true;
  }
  void set(std::uint16_t f) { flags |= f; }
  void clear(std::uint16_t f) { flags &= static_cast<std::uint16_t>(~f); }

  /// Re-derive the hardware permission bits from the owning VMA's
  /// protection — the rearm step shared by fault repair, next-touch
  /// completion, and its degraded (migration-failed) variant.
  void restore_hw(Prot vma_prot) {
    clear(kHwRead | kHwWrite);
    if (prot_allows(vma_prot, Prot::kRead)) set(kHwRead);
    if (prot_allows(vma_prot, Prot::kWrite)) set(kHwWrite);
  }
};

// Page metadata is the dominant per-page cost at million-page scale: a
// 512-entry chunk must stay compact (12 bytes/page — 12 MiB of metadata per
// million pages). Widening Pte needs a deliberate decision, not an
// accidental field.
static_assert(sizeof(Pte) <= 16, "Pte grew past the compact metadata budget");

}  // namespace numasim::vm
