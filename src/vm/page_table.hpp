// Page table keyed by virtual page number: a hash map from chunk number to
// a chunk of 512 PTEs, plus a one-entry cache of the last chunk looked up.
//
// Chunks (one 2 MiB-aligned region each) give dense storage and
// cache-friendly walks for the multi-million-page worksets of Table 1, while
// the hash map stays sparse across the 48-bit address space. The one-entry
// cache serves the sequential walks the kernel does constantly.
//
// Range walks go through the PageRun span API (for_each_run): one hash
// lookup per 512-page chunk instead of one per page, with the PTEs of each
// run handed out as a contiguous span. Chunk storage comes from a bump
// arena owned by the table — chunks are never individually freed (unmap
// only zeroes PTEs), so spans and Pte pointers stay valid for the table's
// lifetime even while faults grow the table mid-walk.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vm/pte.hpp"

namespace numasim::vm {

/// Virtual page number (virtual address >> 12).
using Vpn = std::uint64_t;

/// A maximal contiguous span of existing PTEs inside one chunk, as yielded
/// by PageTable::for_each_run. `ptes[i]` is the entry for page `first + i`.
struct PageRun {
  Vpn first = 0;
  std::span<Pte> ptes;
};

/// Read-only variant of PageRun. Implicitly convertible from PageRun so a
/// read-only callback can be handed to the mutable walk unchanged.
struct ConstPageRun {
  Vpn first = 0;
  std::span<const Pte> ptes;

  ConstPageRun() = default;
  ConstPageRun(Vpn f, std::span<const Pte> p) : first(f), ptes(p) {}
  ConstPageRun(const PageRun& r) : first(r.first), ptes(r.ptes) {}
};

class PageTable {
 public:
  static constexpr unsigned kChunkBits = 9;
  static constexpr std::uint64_t kChunkPages = 1ull << kChunkBits;

  /// PTE for `vpn`, or nullptr if nothing was ever established there.
  /// Prefer for_each_run for walks over a range; per-page find stays as the
  /// point-lookup primitive (and thin-wrapper compatibility, see DESIGN.md).
  Pte* find(Vpn vpn) {
    Chunk* c = chunk_of(vpn, /*create=*/false);
    return c ? &(*c)[vpn & (kChunkPages - 1)] : nullptr;
  }
  const Pte* find(Vpn vpn) const {
    return const_cast<PageTable*>(this)->find(vpn);
  }

  /// PTE for `vpn`, creating an empty one if needed.
  Pte& ensure(Vpn vpn) {
    return (*chunk_of(vpn, /*create=*/true))[vpn & (kChunkPages - 1)];
  }

  /// The kChunkPages PTEs of the chunk holding `vpn` (`vpn`'s own entry is
  /// at index `vpn & (kChunkPages - 1)`), or nullptr if that chunk was never
  /// established. Chunks never move, so a walker may hold the pointer across
  /// page faults; only a chunk it saw as absent can appear meanwhile.
  Pte* chunk_ptes(Vpn vpn) {
    Chunk* c = chunk_of(vpn, /*create=*/false);
    return c ? c->data() : nullptr;
  }

  /// Invoke `fn` on each run of existing PTEs covering [first, last), in
  /// ascending page order. Pages whose chunk was never established are
  /// skipped — exactly the pages for which find() returns nullptr. `fn`
  /// takes a PageRun (or ConstPageRun) and may return void, or bool where
  /// `false` stops the walk early. Runs split only at chunk boundaries;
  /// callers overlay VMA/policy/txn structure on top. Creating PTEs from
  /// inside `fn` is safe: chunks are arena-backed and never move, and the
  /// walk locates each chunk by key, not by map iteration.
  template <typename Fn>
  void for_each_run(Vpn first, Vpn last, Fn&& fn) {
    if (first >= last) return;
    const std::uint64_t last_key = (last - 1) >> kChunkBits;
    for (std::uint64_t key = first >> kChunkBits; key <= last_key; ++key) {
      Chunk* c = chunk_of(key << kChunkBits, /*create=*/false);
      if (c == nullptr) continue;
      const Vpn base = key << kChunkBits;
      const std::uint64_t lo = base < first ? first - base : 0;
      const std::uint64_t hi =
          last - base < kChunkPages ? last - base : kChunkPages;
      PageRun run{base + lo, std::span<Pte>(c->data() + lo, hi - lo)};
      if constexpr (std::is_void_v<decltype(fn(run))>) {
        fn(run);
      } else {
        if (!fn(run)) return;
      }
    }
  }

  template <typename Fn>
  void for_each_run(Vpn first, Vpn last, Fn&& fn) const {
    auto shim = [&fn](PageRun run) { return fn(ConstPageRun(run)); };
    const_cast<PageTable*>(this)->for_each_run(first, last, shim);
  }

  /// Reset all PTEs in [first, last) to empty (frames must already be freed).
  void clear_range(Vpn first, Vpn last);

  /// Number of present PTEs in [first, last).
  std::uint64_t count_present(Vpn first, Vpn last) const;

 private:
  using Chunk = std::array<Pte, kChunkPages>;

  /// Bump arena for chunk storage: blocks of 16 chunks, allocated once and
  /// released only with the table. Individual chunks are never freed, which
  /// is what makes PageRun spans and Pte pointers stable.
  class ChunkArena {
   public:
    Chunk* alloc() {
      if (used_ == kBlockChunks || blocks_.empty()) {
        blocks_.push_back(std::make_unique<Chunk[]>(kBlockChunks));
        used_ = 0;
      }
      return &blocks_.back()[used_++];
    }

   private:
    static constexpr std::size_t kBlockChunks = 16;
    std::vector<std::unique_ptr<Chunk[]>> blocks_;
    std::size_t used_ = kBlockChunks;
  };

  /// One-entry-cache hit inline; the hash lookup is out of line so every
  /// find()/ensure() call site stays small enough to inline. The cached key
  /// starts at an unreachable value, so a key match implies a cached chunk.
  Chunk* chunk_of(Vpn vpn, bool create) {
    const std::uint64_t key = vpn >> kChunkBits;
    if (key == cached_key_) return cached_chunk_;
    return chunk_miss(key, create);
  }
  Chunk* chunk_miss(std::uint64_t key, bool create);

  ChunkArena arena_;
  std::unordered_map<std::uint64_t, Chunk*> chunks_;
  std::uint64_t cached_key_ = ~0ull;
  Chunk* cached_chunk_ = nullptr;
};

}  // namespace numasim::vm
