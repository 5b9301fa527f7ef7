#include "blas/blas.hpp"

#include <array>
#include <cassert>
#include <cstring>
#include <span>
#include <stdexcept>

namespace numasim::blas {

BlasEngine::BlasEngine(rt::Machine& m, BlasParams params)
    : m_(m), params_(params) {
  if (params_.numeric && m.kernel().phys().backing() != mem::Backing::kMaterialized)
    throw std::invalid_argument{"BlasEngine: numeric mode needs materialized memory"};
}

double BlasEngine::flop_ns(std::uint64_t flops) const {
  const auto& core = m_.topology().core_spec();
  const double eff =
      params_.flop_efficiency > 0.0 ? params_.flop_efficiency : core.gemm_efficiency;
  const double gflops = core.peak_gflops() * eff;  // flops per ns
  return static_cast<double>(flops) / gflops;
}

sim::Task<void> BlasEngine::account(rt::Thread& th, std::uint64_t flops,
                                    const Tile* reads, std::size_t nreads,
                                    const Tile* writes, std::size_t nwrites) {
  kern::Kernel& k = th.kernel();
  kern::ThreadCtx& ctx = th.ctx();

  std::uint64_t sum_bytes = 0;
  for (std::size_t i = 0; i < nreads; ++i) sum_bytes += reads[i].touched_bytes();
  for (std::size_t i = 0; i < nwrites; ++i) sum_bytes += writes[i].touched_bytes();

  // Cache model: operand sets fitting in the node's shared L3 stream each
  // byte once; larger sets pay the amplified (bytes_per_flop) traffic.
  const double l3 = static_cast<double>(
      m_.topology().node_spec(th.node()).l3_bytes);
  double scale = params_.cache_hit_fraction;
  if (sum_bytes > 0 &&
      static_cast<double>(sum_bytes) > params_.cache_fraction * l3) {
    scale = 1.0;
    const double amplified = params_.bytes_per_flop * static_cast<double>(flops);
    if (amplified > static_cast<double>(sum_bytes))
      scale = amplified / static_cast<double>(sum_bytes);
  }

  // Walk pages (faults, next-touch migration) and collect where the bytes
  // live; the data-plane charge happens below, in bounded slices. The
  // buckets live in this call's frame: one engine serves every team thread,
  // and another thread's account() runs while this one is suspended.
  const topo::NodeId nodes = m_.topology().num_nodes();
  std::array<std::uint64_t, topo::kMaxNodes> by_node{};
  auto walk = [&](const Tile& tile, vm::Prot want) {
    std::array<std::uint64_t, topo::kMaxNodes> tile_nodes{};
    k.access_strided(ctx, tile.base, tile.rows, tile.row_bytes(),
                     tile.stride_bytes(), want, 0.0, 1.0,
                     std::span(tile_nodes.data(), nodes));
    for (topo::NodeId n = 0; n < nodes; ++n) by_node[n] += tile_nodes[n];
  };
  for (std::size_t i = 0; i < nreads; ++i) walk(reads[i], vm::Prot::kRead);
  for (std::size_t i = 0; i < nwrites; ++i) walk(writes[i], vm::Prot::kReadWrite);
  co_await th.sync();

  const double rate = k.cost().core_stream_bytes_per_us;
  const std::uint64_t slice = params_.stream_slice_bytes;
  for (topo::NodeId n = 0; n < nodes; ++n) {
    auto remaining = static_cast<std::uint64_t>(
        static_cast<double>(by_node[n]) * scale + 0.5);
    while (remaining > 0) {
      const std::uint64_t now = std::min(remaining, slice);
      k.charge_stream(ctx, n, now, rate);
      remaining -= now;
      co_await th.sync();
    }
  }

  const auto fns = static_cast<sim::Time>(flop_ns(flops) + 0.5);
  ctx.clock += fns;
  ctx.stats.add(sim::CostKind::kCompute, fns);
  co_await th.sync();
}

std::vector<double> BlasEngine::load(rt::Thread& th, const Tile& t) const {
  std::vector<double> v(t.rows * t.cols);
  for (std::uint64_t r = 0; r < t.rows; ++r) {
    auto* dst = reinterpret_cast<std::byte*>(v.data() + r * t.cols);
    if (!m_.kernel().peek(th.ctx().pid, t.row_addr(r), {dst, t.row_bytes()}))
      throw std::runtime_error{"BlasEngine: tile not materialized/present"};
  }
  return v;
}

void BlasEngine::store(rt::Thread& th, const Tile& t,
                       const std::vector<double>& v) const {
  assert(v.size() == t.rows * t.cols);
  for (std::uint64_t r = 0; r < t.rows; ++r) {
    const auto* src = reinterpret_cast<const std::byte*>(v.data() + r * t.cols);
    if (!m_.kernel().poke(th.ctx().pid, t.row_addr(r), {src, t.row_bytes()}))
      throw std::runtime_error{"BlasEngine: tile not materialized/present"};
  }
}

sim::Task<void> BlasEngine::gemm_minus(rt::Thread& th, Tile a, Tile b, Tile c) {
  assert(a.cols == b.rows && a.rows == c.rows && b.cols == c.cols);
  const std::uint64_t flops = 2 * a.rows * b.cols * a.cols;
  const Tile reads[] = {a, b};
  const Tile writes[] = {c};
  co_await account(th, flops, reads, 2, writes, 1);

  if (params_.numeric) {
    const auto va = load(th, a);
    const auto vb = load(th, b);
    auto vc = load(th, c);
    const std::uint64_t m = a.rows, n = b.cols, kk = a.cols;
    for (std::uint64_t i = 0; i < m; ++i) {
      for (std::uint64_t l = 0; l < kk; ++l) {
        const double ail = va[i * kk + l];
        if (ail == 0.0) continue;
        for (std::uint64_t j = 0; j < n; ++j)
          vc[i * n + j] -= ail * vb[l * n + j];
      }
    }
    store(th, c, vc);
  }
  co_await th.sync();
}

sim::Task<void> BlasEngine::trsm_lower_left(rt::Thread& th, Tile d, Tile b) {
  assert(d.rows == d.cols && d.cols == b.rows);
  const std::uint64_t flops = d.rows * d.rows * b.cols;
  const Tile reads[] = {d};
  const Tile writes[] = {b};
  co_await account(th, flops, reads, 1, writes, 1);

  if (params_.numeric) {
    const auto vl = load(th, d);
    auto vb = load(th, b);
    const std::uint64_t n = d.rows, nc = b.cols;
    for (std::uint64_t k = 0; k < n; ++k) {
      for (std::uint64_t i = k + 1; i < n; ++i) {
        const double lik = vl[i * n + k];
        if (lik == 0.0) continue;
        for (std::uint64_t j = 0; j < nc; ++j)
          vb[i * nc + j] -= lik * vb[k * nc + j];
      }
    }
    store(th, b, vb);
  }
  co_await th.sync();
}

sim::Task<void> BlasEngine::trsm_upper_right(rt::Thread& th, Tile d, Tile b) {
  assert(d.rows == d.cols && d.cols == b.cols);
  const std::uint64_t flops = d.rows * d.rows * b.rows;
  const Tile reads[] = {d};
  const Tile writes[] = {b};
  co_await account(th, flops, reads, 1, writes, 1);

  if (params_.numeric) {
    const auto vu = load(th, d);
    auto vb = load(th, b);
    const std::uint64_t n = d.cols, nr = b.rows;
    for (std::uint64_t i = 0; i < nr; ++i) {
      for (std::uint64_t j = 0; j < n; ++j) {
        double x = vb[i * n + j];
        for (std::uint64_t k = 0; k < j; ++k)
          x -= vb[i * n + k] * vu[k * n + j];
        vb[i * n + j] = x / vu[j * n + j];
      }
    }
    store(th, b, vb);
  }
  co_await th.sync();
}

sim::Task<void> BlasEngine::getf2(rt::Thread& th, Tile d) {
  assert(d.rows == d.cols);
  const std::uint64_t n = d.rows;
  const std::uint64_t flops = 2 * n * n * n / 3;
  const Tile writes[] = {d};
  co_await account(th, flops, nullptr, 0, writes, 1);

  if (params_.numeric) {
    auto v = load(th, d);
    for (std::uint64_t k = 0; k < n; ++k) {
      const double pivot = v[k * n + k];
      if (pivot == 0.0) throw std::runtime_error{"getf2: zero pivot"};
      for (std::uint64_t i = k + 1; i < n; ++i) {
        v[i * n + k] /= pivot;
        const double lik = v[i * n + k];
        for (std::uint64_t j = k + 1; j < n; ++j)
          v[i * n + j] -= lik * v[k * n + j];
      }
    }
    store(th, d, v);
  }
  co_await th.sync();
}

sim::Task<void> BlasEngine::axpy(rt::Thread& th, double alpha, vm::Vaddr x,
                                 vm::Vaddr y, std::uint64_t n) {
  kern::Kernel& k = th.kernel();
  const double rate = k.cost().core_stream_bytes_per_us;
  // Exact streaming traffic: x read once, y read+written once.
  k.access(th.ctx(), x, n * kElemBytes, vm::Prot::kRead, rate);
  k.access(th.ctx(), y, n * kElemBytes, vm::Prot::kReadWrite, rate);
  const auto fns = static_cast<sim::Time>(flop_ns(2 * n) + 0.5);
  th.ctx().clock += fns;
  th.ctx().stats.add(sim::CostKind::kCompute, fns);

  if (params_.numeric) {
    std::vector<double> vx(n), vy(n);
    auto* bx = reinterpret_cast<std::byte*>(vx.data());
    auto* by = reinterpret_cast<std::byte*>(vy.data());
    if (!k.peek(th.ctx().pid, x, {bx, n * kElemBytes}) ||
        !k.peek(th.ctx().pid, y, {by, n * kElemBytes}))
      throw std::runtime_error{"axpy: vectors not materialized/present"};
    for (std::uint64_t i = 0; i < n; ++i) vy[i] += alpha * vx[i];
    k.poke(th.ctx().pid, y, {by, n * kElemBytes});
  }
  co_await th.sync();
}

sim::Task<double> BlasEngine::dot(rt::Thread& th, vm::Vaddr x, vm::Vaddr y,
                                  std::uint64_t n) {
  kern::Kernel& k = th.kernel();
  const double rate = k.cost().core_stream_bytes_per_us;
  k.access(th.ctx(), x, n * kElemBytes, vm::Prot::kRead, rate);
  k.access(th.ctx(), y, n * kElemBytes, vm::Prot::kRead, rate);
  const auto fns = static_cast<sim::Time>(flop_ns(2 * n) + 0.5);
  th.ctx().clock += fns;
  th.ctx().stats.add(sim::CostKind::kCompute, fns);

  double result = 0.0;
  if (params_.numeric) {
    std::vector<double> vx(n), vy(n);
    auto* bx = reinterpret_cast<std::byte*>(vx.data());
    auto* by = reinterpret_cast<std::byte*>(vy.data());
    if (!k.peek(th.ctx().pid, x, {bx, n * kElemBytes}) ||
        !k.peek(th.ctx().pid, y, {by, n * kElemBytes}))
      throw std::runtime_error{"dot: vectors not materialized/present"};
    for (std::uint64_t i = 0; i < n; ++i) result += vx[i] * vy[i];
  }
  co_await th.sync();
  co_return result;
}

void fill_matrix(rt::Machine& m, const Matrix& mat,
                 double (*f)(std::uint64_t, std::uint64_t)) {
  std::vector<double> row(mat.cols);
  for (std::uint64_t r = 0; r < mat.rows; ++r) {
    for (std::uint64_t c = 0; c < mat.cols; ++c) row[c] = f(r, c);
    const auto* src = reinterpret_cast<const std::byte*>(row.data());
    if (!m.kernel().poke(m.pid(), mat.at(r, 0), {src, mat.cols * kElemBytes}))
      throw std::runtime_error{"fill_matrix: matrix not populated/materialized"};
  }
}

std::vector<double> dump_matrix(rt::Machine& m, const Matrix& mat) {
  std::vector<double> v(mat.rows * mat.cols);
  for (std::uint64_t r = 0; r < mat.rows; ++r) {
    auto* dst = reinterpret_cast<std::byte*>(v.data() + r * mat.cols);
    if (!m.kernel().peek(m.pid(), mat.at(r, 0), {dst, mat.cols * kElemBytes}))
      throw std::runtime_error{"dump_matrix: matrix not populated/materialized"};
  }
  return v;
}

}  // namespace numasim::blas
