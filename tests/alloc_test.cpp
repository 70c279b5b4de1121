// Heap-allocation budget of the MPICH2-NewMadeleine stack: the steady-state
// eager message allocates only its payload snapshot, and the state a rank
// holds does not grow with the number of ranks. This executable replaces the
// global operator new/delete with counting versions, so it is kept apart
// from the other suites.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "mpi/cluster.hpp"

namespace {

// Counters of the replaced operator new. The simulation runs on one OS
// thread (ranks are fibers), so plain counters are exact.
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  g_bytes += n;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nmx {
namespace {

TEST(AllocBudget, EagerRoundTripAllocatesOnlyItsSnapshots) {
  // 2 ranks on 2 nodes over IB: every message takes the bypass path
  // (MPI -> CH3 -> nm_sr_isend -> strategy -> NIC -> wire and back).
  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 2;
  mpi::Cluster cluster(cfg);
  constexpr int kWarmup = 100;
  constexpr int kRoundTrips = 1000;
  std::uint64_t allocs = 0;
  cluster.run([&](mpi::Comm& c) {
    char buf[64] = {};
    const int peer = 1 - c.rank();
    auto round_trip = [&] {
      if (c.rank() == 0) {
        c.send(buf, sizeof buf, peer, 1);
        c.recv(buf, sizeof buf, peer, 1);
      } else {
        c.recv(buf, sizeof buf, peer, 1);
        c.send(buf, sizeof buf, peer, 1);
      }
    };
    for (int i = 0; i < kWarmup; ++i) round_trip();
    // Rank 0's window holds both ranks' work for every measured message:
    // rank 1 posts each receive after rank 0 has seen the previous pong,
    // then waits in a receive (which allocates nothing) until rank 0 has
    // read the counter, so its exit stays outside the window.
    const std::uint64_t before = g_allocs;
    for (int i = 0; i < kRoundTrips; ++i) round_trip();
    if (c.rank() == 0) {
      allocs = g_allocs - before;
      c.send(buf, 0, peer, 2);
    } else {
      c.recv(buf, 0, peer, 2);
    }
  });
  const double per_msg = static_cast<double>(allocs) / (2.0 * kRoundTrips);
  std::printf("eager 64 B round trips: %llu allocations for %d messages (%.3f per message)\n",
              static_cast<unsigned long long>(allocs), 2 * kRoundTrips, per_msg);
  EXPECT_LE(allocs, static_cast<std::uint64_t>(2 * kRoundTrips))
      << "more than the one eager snapshot per message";
}

// Heap bytes per rank to build a cluster of `procs` ranks (8 per node, the
// paper's CG layout) and run one barrier on it.
double bytes_per_rank(int procs) {
  const std::uint64_t before = g_bytes;
  {
    mpi::ClusterConfig cfg;
    cfg.nodes = procs / 8;
    cfg.procs = procs;
    mpi::Cluster cluster(cfg);
    cluster.run([](mpi::Comm& c) { c.barrier(); });
  }
  return static_cast<double>(g_bytes - before) / procs;
}

TEST(AllocBudget, PerRankStateDoesNotGrowWithRankCount) {
  const double small = bytes_per_rank(64);
  const double large = bytes_per_rank(512);
  std::printf("heap bytes per rank, construction + one barrier: %.0f at 64 ranks, %.0f at 512 "
              "(ratio %.3f)\n",
              small, large, large / small);
  EXPECT_LE(large, 1.25 * small) << "some per-rank table is sized by the rank count";
}

}  // namespace
}  // namespace nmx
