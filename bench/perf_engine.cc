// Wall-clock performance harness for the simulation engine — the repo's perf
// trajectory. Three workloads:
//
//   * storm      — a synthetic self-sustaining event storm (4096 concurrent
//                  chains, NIC-style constant deltas, periodic far-future
//                  timeouts cancelled by the next event) that isolates the
//                  raw schedule/cancel/dispatch path. This is the ≥2x
//                  microbench the pooled-event engine is measured by.
//   * spawn      — actor spawn/teardown microbench: waves of short-lived
//                  actors created, run, and reaped. Measures the fiber
//                  forge + pooled-stack acquire/release path (one mmap per
//                  concurrently-live actor, reuse after); "events" counts
//                  actors created + destroyed.
//   * nas_cg_s   — fig8-style NAS CG class S on the Grid'5000 testbed
//                  (10 nodes, IB, cyclic placement, MPICH2-NMad + PIOMan):
//                  the real simulator hot path, with actors, the fabric and
//                  the full protocol stack in play. The fiber runtime runs
//                  it from 8 up to 1024 ranks (--ranks=128,256,512,1024);
//                  peak RSS must stay sub-linear in ranks (pooled lazily
//                  committed stacks), gated by --rss-sublinear in CI.
//   * nas_ft_s   — NAS FT class S on 64 ranks, same testbed but IB+MX with
//                  the CostModel strategy: an all-to-all where every core
//                  queues traffic for every other, so it runs the
//                  many-destination scheduling path (the strategies'
//                  round-robin over active destinations) that CG leaves cold.
//
// Each run reports simulated events, wall seconds, events/sec and peak RSS,
// and the whole session is emitted as a JSON array (BENCH_engine.json):
//   [{"bench": ..., "ranks": N, "events": N, "wall_s": X,
//     "events_per_s": X, "rss_mb": X}, ...]
// CI compares events_per_s against the checked-in baseline and fails on a
// >25% regression (tools/check_bench_regression.py).
//
// Flags:  --ranks=8,16     NAS rank subset (default 8,16,32,64)
//         --out=PATH       JSON output path (default BENCH_engine.json)
//         --skip-storm / --skip-spawn / --skip-nas (CG and FT)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "nas/nas.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using namespace nmx;

struct Row {
  std::string bench;
  int ranks = 0;  // 0: no simulated ranks (pure engine microbench)
  std::size_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
  double rss_mb = 0;
};

/// Peak resident set size so far, from /proc/self/status (VmHWM). 0 when the
/// proc filesystem is unavailable (non-Linux).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Row run_storm() {
  constexpr std::size_t kEvents = 3'000'000;
  constexpr Time kDeltas[4] = {1e-7, 3e-7, 1.1e-6, 1.9e-6};
  sim::Engine eng;
  sim::Xoshiro256 rng(42);
  std::size_t fired = 0;
  struct Chain {
    sim::EventId timeout = 0;
  };
  static Chain chains[4096];
  for (auto& c : chains) c.timeout = 0;
  std::function<void(int)> arm = [&](int c) {
    if (fired >= kEvents) return;
    ++fired;
    Chain& ch = chains[c];
    if (ch.timeout != 0) {
      eng.cancel(ch.timeout);
      ch.timeout = 0;
    }
    if ((fired & 3u) == 0) {
      ch.timeout = eng.schedule_in(1e-3, [] {});
    }
    const Time dt = kDeltas[rng.below(4)];
    void* pad[3] = {&eng, &ch, nullptr};  // typical 3-pointer capture size
    eng.schedule_in(dt, [&arm, c, pad] { (void)pad; arm(c); });
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < 4096; ++c) {
    eng.schedule_in(kDeltas[c & 3], [&arm, c] { arm(c); });
  }
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.bench = "storm";
  r.events = eng.events_processed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  r.rss_mb = peak_rss_mb();
  if (eng.closure_heap_allocs() != 0) {
    std::fprintf(stderr, "WARNING: storm closures spilled to the heap (%llu)\n",
                 static_cast<unsigned long long>(eng.closure_heap_allocs()));
  }
  return r;
}

Row run_spawn() {
  // 64 waves of 1024 actors: each actor does one sleep (forcing a real
  // schedule + fiber switch round trip) and exits; the wave is then run to
  // completion and reaped. Peak concurrency is one wave, so the stack pool's
  // high-water mark stays at 1024 while 65536 actors pass through it —
  // steady-state spawn cost is a free-list pop, not an mmap.
  constexpr int kWaves = 64;
  constexpr int kActorsPerWave = 1024;
  sim::Engine eng;
  std::size_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kActorsPerWave; ++i) {
      eng.spawn("spawn." + std::to_string(w) + "." + std::to_string(i), [&done](sim::Actor& self) {
        self.sleep_for(1e-9);
        ++done;
      });
    }
    eng.run();
    eng.reap_finished();
  }
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.bench = "spawn";
  r.events = 2 * done;  // created + destroyed
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  r.rss_mb = peak_rss_mb();
  if (done != static_cast<std::size_t>(kWaves) * kActorsPerWave) {
    std::fprintf(stderr, "WARNING: spawn bench lost actors (%zu)\n", done);
  }
  if (eng.fiber_stacks_allocated() > kActorsPerWave) {
    std::fprintf(stderr, "WARNING: stack pool failed to reuse (allocated %llu > wave size)\n",
                 static_cast<unsigned long long>(eng.fiber_stacks_allocated()));
  }
  return r;
}

/// One NAS class S run on the fig8 Grid'5000 testbed (10 nodes, cyclic
/// placement, MPICH2-NMad + PIOMan) over `rails` with strategy `strat`.
Row run_nas(const char* bench, const char* kernel, int ranks, std::vector<net::NicProfile> rails,
            nmad::StrategyKind strat) {
  mpi::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.procs = ranks;
  cfg.rails = std::move(rails);
  cfg.strategy = strat;
  cfg.cyclic_mapping = true;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;

  const auto t0 = std::chrono::steady_clock::now();
  mpi::Cluster cluster(cfg);
  nas::NasConfig nc;
  nc.cls = nas::NasClass::S;  // CI-budget class; the shape is rank-scaling
  const nas::NasResult res = nas::run_nas(cluster, kernel, nc);
  const auto t1 = std::chrono::steady_clock::now();
  (void)res;

  Row r;
  r.bench = bench;
  r.ranks = ranks;
  r.events = cluster.engine().events_processed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  r.rss_mb = peak_rss_mb();
  return r;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  {\"bench\": \"%s\", \"ranks\": %d, \"events\": %zu, \"wall_s\": %.4f, "
                  "\"events_per_s\": %.0f, \"rss_mb\": %.1f}%s\n",
                  r.bench.c_str(), r.ranks, r.events, r.wall_s, r.events_per_s, r.rss_mb,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ranks{8, 16, 32, 64};
  std::string out_path = "BENCH_engine.json";
  bool do_storm = true, do_spawn = true, do_nas = true;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--ranks=", 0) == 0) {
      ranks.clear();
      for (std::size_t pos = 8; pos < a.size();) {
        ranks.push_back(std::atoi(a.c_str() + pos));
        pos = a.find(',', pos);
        if (pos == std::string::npos) break;
        ++pos;
      }
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a == "--skip-storm") {
      do_storm = false;
    } else if (a == "--skip-spawn") {
      do_spawn = false;
    } else if (a == "--skip-nas") {
      do_nas = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  std::vector<Row> rows;
  auto report = [&](const Row& r) {
    std::printf("%-10s ranks=%-3d events=%-9zu wall_s=%-7.3f events_per_s=%-10.0f rss_mb=%.1f\n",
                r.bench.c_str(), r.ranks, r.events, r.wall_s, r.events_per_s, r.rss_mb);
    rows.push_back(r);
  };

  std::printf("== perf_engine: wall-clock engine throughput ==\n");
  if (do_storm) report(run_storm());
  if (do_spawn) report(run_spawn());
  if (do_nas) {
    for (int n : ranks) {
      report(run_nas("nas_cg_s", "CG", n, {net::ib_profile()}, nmad::StrategyKind::Aggreg));
    }
    report(run_nas("nas_ft_s", "FT", 64, {net::ib_profile(), net::mx_profile()},
                   nmad::StrategyKind::CostModel));
  }
  write_json(rows, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
