#include "vm/page_table.hpp"

namespace numasim::vm {

PageTable::Chunk* PageTable::chunk_miss(std::uint64_t key, bool create) {
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    if (!create) return nullptr;
    it = chunks_.emplace(key, arena_.alloc()).first;
  }
  cached_key_ = key;
  cached_chunk_ = it->second;
  return cached_chunk_;
}

void PageTable::clear_range(Vpn first, Vpn last) {
  for_each_run(first, last, [](PageRun run) {
    for (Pte& pte : run.ptes) pte = Pte{};
  });
}

std::uint64_t PageTable::count_present(Vpn first, Vpn last) const {
  std::uint64_t n = 0;
  for_each_run(first, last, [&n](ConstPageRun run) {
    for (const Pte& pte : run.ptes) n += pte.present() ? 1 : 0;
  });
  return n;
}

}  // namespace numasim::vm
