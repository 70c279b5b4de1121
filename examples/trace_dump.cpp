// Tracing demo: run a small mixed workload (rendezvous over the network,
// eager over shared memory, a collective, PIOMan in the background) with the
// observability recorder attached, then print the per-category summary and
// the head of the trace — the simulator's stand-in for the PM2 suite's FxT
// traces.
//
// Also writes the two observability sidecars:
//   trace_dump.trace.json — Chrome trace-event JSON; open it in Perfetto
//                           (https://ui.perfetto.dev) or chrome://tracing to
//                           see one track per rank (spans for MPI waits,
//                           compute, message lifecycles, NIC activity) plus
//                           an engine-level track for PIOMan passes;
//   trace_dump.metrics.csv — counters/gauges/histograms (per-rail bytes,
//                           strategy queue depth, rendezvous handshake
//                           latency, PIOMan passes, ...).
//
//   $ ./examples/trace_dump
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>

#include "mpi/cluster.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_csv.hpp"
#include "obs/recorder.hpp"

int main() {
  using namespace nmx;

  mpi::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.procs = 4;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;
  cfg.trace = true;
  mpi::Cluster cluster(cfg);

  cluster.run([](mpi::Comm& c) {
    std::vector<std::byte> big(512 * 1024), small(2 * 1024);
    if (c.rank() == 0) {
      mpi::Request r = c.isend(big.data(), big.size(), 2, 1);  // network rendezvous
      c.compute(50e-6);                                        // PIOMan progresses it
      c.wait(r);
      c.send(small.data(), small.size(), 1, 2);  // shared-memory eager
    } else if (c.rank() == 2) {
      c.recv(big.data(), big.size(), 0, 1);
    } else if (c.rank() == 1) {
      c.recv(small.data(), small.size(), 0, 2);
    }
    c.barrier();
  });

  obs::Recorder& rec = *cluster.recorder();
  std::printf("captured %zu events over %.1f us of virtual time\n\n", rec.size(),
              cluster.now() * 1e6);

  // Per-category totals; a span counts once, at its Begin.
  std::map<obs::Cat, std::pair<std::uint64_t, std::uint64_t>> summary;  // count, bytes
  for (const obs::Record& r : rec.records()) {
    if (r.ph == obs::Ph::End) continue;
    auto& [count, bytes] = summary[r.cat];
    ++count;
    bytes += r.bytes;
  }
  std::printf("%-10s %8s %12s\n", "category", "count", "bytes");
  for (const auto& [cat, s] : summary) {
    std::printf("%-10s %8llu %12llu\n", obs::to_string(cat),
                static_cast<unsigned long long>(s.first),
                static_cast<unsigned long long>(s.second));
  }

  std::printf("\nfirst 12 trace lines (t_us rank category bytes aux [B|E span]):\n");
  const auto& recs = rec.records();
  for (std::size_t i = 0; i < recs.size() && i < 12; ++i) {
    const obs::Record& r = recs[i];
    std::printf("  %.3f %d %s %zu %lld", r.t * 1e6, r.rank, obs::to_string(r.cat), r.bytes,
                static_cast<long long>(r.arg));
    if (r.ph != obs::Ph::Instant) {
      std::printf(" %c %llu", r.ph == obs::Ph::Begin ? 'B' : 'E',
                  static_cast<unsigned long long>(r.span));
    }
    std::printf("\n");
  }

  obs::write_chrome_trace_file(rec, "trace_dump.trace.json");
  obs::write_metrics_csv_file(rec, "trace_dump.metrics.csv");
  std::printf("\nwrote trace_dump.trace.json (%zu chrome events) — open in "
              "https://ui.perfetto.dev or chrome://tracing\n",
              obs::chrome_event_count(rec));
  std::printf("wrote trace_dump.metrics.csv (%zu counters, %zu gauges, %zu histograms)\n",
              rec.metrics().counters().size(), rec.metrics().gauges().size(),
              rec.metrics().histograms().size());
  return 0;
}
