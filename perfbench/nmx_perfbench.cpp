// One timed pass of one perfbench workload, printed as a single JSON object
// on stdout. perfbench/run.py runs this binary repeatedly, takes medians,
// checks the results and prints the benchmark's verdict; this file only
// drives the simulator through its public API and reports what it saw.
//
// Workloads (all on the MPICH2-NewMadeleine stack):
//   pingpong  Netpipe-style two-rank ping-pong, five legs: 4 B over IB with a
//             known source, 4 B over IB with ANY_SOURCE, 4 B over Nemesis
//             shared memory, 8 MiB over IB+MX with SplitBalance, and 8 MiB
//             over IB+MX with CostModel (its on-demand rendezvous chunking).
//   cg_s256   NAS CG class S, 256 ranks on 10 nodes, IB, cyclic, PIOMan.
//   ft_a64    NAS FT class A, 64 ranks on 10 nodes, IB+MX, CostModel, PIOMan.
//
// Usage: nmx_perfbench --workload NAME --seed N [--trace 0|1] [--smoke]
//        nmx_perfbench --reference
//
//   --seed    fills the ping-pong payload bytes; virtual results must not
//             depend on it.
//   --trace 1 runs with ClusterConfig::trace and adds the recorder's
//             counters, gauges, histograms and critical path, plus the
//             host-clock spans this file records around its own calls into
//             the simulator (Cluster construction, Cluster::run and every
//             Comm call of the ping-pong body).
//   --smoke   reduced sizes for the benchmark's own tests.
//   --reference times a fixed host kernel that does not touch the simulator
//             (run.py times it between passes to gauge the host's speed).
//
// Host times: setup_s is Cluster construction (median of five), wall_s / cpu_s cover the
// Cluster::run (or nas::run_nas) calls only, cpu_s from getrusage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mpi/cluster.hpp"
#include "nas/nas.hpp"
#include "obs/report.hpp"

namespace {

using namespace nmx;
using Clock = std::chrono::steady_clock;

// --- host-clock spans -------------------------------------------------------

enum SpanKind : int { kCtor, kRun, kIsend, kIrecv, kWait, kNumSpanKinds };
constexpr const char* kSpanNames[kNumSpanKinds] = {"cluster_ctor", "cluster_run", "isend",
                                                   "irecv", "wait"};

struct Span {
  int kind;
  int rank;  ///< -1: the benchmark's own (non-rank) context
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set size so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- options and pass state ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool smoke = false;
};

/// Raw recorder aggregates, summed over every cluster a pass builds.
struct LayerRaw {
  std::map<std::string, double> counters;   ///< "name" or "name|label" -> total
  std::map<std::string, double> gauge_max;  ///< name -> max over labels and clusters
  struct Hist {
    std::vector<double> edges;
    std::vector<std::uint64_t> counts;
  };
  std::map<std::string, Hist> hists;
  double cp_wall = 0, cp_compute = 0, cp_wire = 0, cp_sw = 0, cp_blocked = 0, cp_coll = 0;
  std::uint64_t cp_iterations = 0;
  std::uint64_t records = 0;
};

struct Pass {
  Options opt;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t events = 0;
  std::uint64_t fiber_stacks = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t closure_heap_allocs = 0;
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  std::vector<std::pair<std::string, double>> virt;  ///< named virtual-time results
  LayerRaw layer;
  std::vector<Span> spans;

  void span(int kind, int rank, std::int64_t t0) {
    if (opt.trace) spans.push_back(Span{kind, rank, t0, now_ns()});
  }
};

/// Construct the cluster kSetupReps times and keep the last one; setup_s
/// gains the median construction time, so one slow allocation does not
/// decide a pass's set-up figure.
std::unique_ptr<mpi::Cluster> build_cluster(Pass& p, mpi::ClusterConfig cfg) {
  constexpr int kSetupReps = 5;
  cfg.trace = p.opt.trace;
  std::vector<double> took;
  std::unique_ptr<mpi::Cluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    const std::int64_t s0 = now_ns();
    const auto t0 = Clock::now();
    cluster = std::make_unique<mpi::Cluster>(cfg);
    took.push_back(seconds_since(t0));
    p.span(kCtor, -1, s0);
  }
  std::sort(took.begin(), took.end());
  p.setup_s += took[took.size() / 2];
  return cluster;
}

/// Time one call into the simulator that runs the cluster (Cluster::run or
/// nas::run_nas).
template <class F>
void timed_run(Pass& p, F&& fn) {
  const std::int64_t s0 = now_ns();
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  fn();
  p.wall_s += seconds_since(t0);
  p.cpu_s += cpu_seconds() - c0;
  p.span(kRun, -1, s0);
  // Sampled before collect() so a traced pass's peak excludes the trace
  // analysis of its last cluster.
  p.peak_rss_mb = peak_rss_mb();
}

/// Fold one finished cluster's engine and recorder state into the pass.
void collect(Pass& p, mpi::Cluster& cluster) {
  sim::Engine& eng = cluster.engine();
  p.events += eng.events_processed();
  p.fiber_stacks += eng.fiber_stacks_allocated();
  p.pool_slots += eng.pool_slots();
  p.closure_heap_allocs += eng.closure_heap_allocs();
  obs::Recorder* rec = cluster.recorder();
  if (rec == nullptr) return;

  LayerRaw& L = p.layer;
  const obs::Registry& m = rec->metrics();
  for (const auto& [key, c] : m.counters()) {
    const std::string name = key.second.empty() ? key.first : key.first + "|" + key.second;
    L.counters[name] += static_cast<double>(c.value());
  }
  for (const auto& [key, g] : m.gauges()) {
    double& mx = L.gauge_max[key.first];
    mx = std::max(mx, g.max());
  }
  for (const auto& [key, h] : m.histograms()) {
    LayerRaw::Hist& out = L.hists[key.first];
    if (out.edges.empty()) {
      out.edges = h.edges();
      out.counts.assign(h.bucket_counts().size(), 0);
    }
    if (out.edges != h.edges()) continue;  // same name, other buckets: keep the first
    for (std::size_t i = 0; i < out.counts.size(); ++i) out.counts[i] += h.bucket_counts()[i];
  }
  L.records += rec->size() + rec->dropped_records();

  const obs::RunReport rr = obs::analyze_run(*rec, "perfbench", cluster.config().procs, {});
  L.cp_wall += rr.critpath.wall;
  L.cp_compute += rr.critpath.compute;
  L.cp_wire += rr.critpath.wire;
  L.cp_sw += rr.critpath.sw;
  L.cp_blocked += rr.critpath.blocked;
  L.cp_coll += rr.coll_covered() * rr.critpath.wall;
  L.cp_iterations += rr.critpath.iterations.size();
}

// --- pingpong -----------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded payload: pattern[parity]; parity 1 is parity 0 with every byte
/// flipped, so consecutive messages differ in every byte and a byte the
/// transport failed to overwrite is always caught.
struct Payload {
  std::vector<std::byte> pattern[2];
  Payload(std::size_t bytes, std::uint64_t seed) {
    pattern[0].resize(bytes);
    pattern[1].resize(bytes);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < bytes; i += 8) {
      const std::uint64_t v = splitmix64(s);
      std::memcpy(pattern[0].data() + i, &v, std::min<std::size_t>(8, bytes - i));
    }
    for (std::size_t i = 0; i < bytes; ++i) pattern[1][i] = pattern[0][i] ^ std::byte{0xa5};
  }
};

struct Leg {
  const char* metric;  ///< virtual-result name
  mpi::ClusterConfig cfg;
  std::size_t bytes;
  bool any_source;
  int iters;
};

std::vector<Leg> pingpong_legs(bool smoke) {
  auto two_nodes = [](std::vector<net::NicProfile> rails) {
    mpi::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.procs = 2;
    cfg.rails = std::move(rails);
    cfg.stack = mpi::StackKind::Mpich2Nmad;
    return cfg;
  };
  mpi::ClusterConfig shm = two_nodes({net::ib_profile()});
  shm.nodes = 1;
  mpi::ClusterConfig multirail = two_nodes({net::ib_profile(), net::mx_profile()});
  multirail.strategy = nmad::StrategyKind::SplitBalance;
  mpi::ClusterConfig costmodel = multirail;
  costmodel.strategy = nmad::StrategyKind::CostModel;
  const int small = smoke ? 20 : 4000;
  const int big = smoke ? 3 : 40;
  return {
      {"lat_4B_us", two_nodes({net::ib_profile()}), 4, false, small},
      {"lat_4B_anysource_us", two_nodes({net::ib_profile()}), 4, true, small},
      {"lat_4B_shm_us", shm, 4, false, small},
      {"bw_8MiB_MBps", multirail, 8u << 20, false, big},
      {"bw_8MiB_costmodel_MBps", costmodel, 8u << 20, false, big},
  };
}

void run_pingpong(Pass& p) {
  const std::vector<Leg> legs = pingpong_legs(p.opt.smoke);
  for (std::size_t li = 0; li < legs.size(); ++li) {
    const Leg& leg = legs[li];
    // One payload per direction, seeded from (seed, leg, direction).
    const Payload out[2] = {Payload(leg.bytes, p.opt.seed * 16 + li * 2),
                            Payload(leg.bytes, p.opt.seed * 16 + li * 2 + 1)};
    auto cluster = build_cluster(p, leg.cfg);
    double best_rtt = 0;
    timed_run(p, [&] {
      cluster->run([&](mpi::Comm& c) {
        const int me = c.rank();
        const int peer = 1 - me;
        const int src = leg.any_source ? mpi::ANY_SOURCE : peer;
        std::vector<std::byte> rbuf(leg.bytes);
        auto send = [&](const std::vector<std::byte>& buf) {
          std::int64_t s0 = now_ns();
          mpi::Request r = c.isend(buf.data(), leg.bytes, peer, 7);
          p.span(kIsend, me, s0);
          s0 = now_ns();
          c.wait(r);
          p.span(kWait, me, s0);
        };
        auto recv = [&](const std::vector<std::byte>& expect) {
          std::int64_t s0 = now_ns();
          mpi::Request r = c.irecv(rbuf.data(), leg.bytes, src, 7);
          p.span(kIrecv, me, s0);
          s0 = now_ns();
          const mpi::Status st = c.wait(r);
          p.span(kWait, me, s0);
          ++p.checks;
          if (st.source != peer || st.count != leg.bytes ||
              std::memcmp(rbuf.data(), expect.data(), leg.bytes) != 0) {
            ++p.check_failures;
          }
        };
        // Iteration -1 is the warmup (registration caches); every iteration
        // is checked, the warmup is not timed.
        for (int i = -1; i < leg.iters; ++i) {
          const int parity = i & 1;
          const double t0 = c.wtime();
          if (me == 0) {
            send(out[0].pattern[parity]);
            recv(out[1].pattern[parity]);
          } else {
            recv(out[0].pattern[parity]);
            send(out[1].pattern[parity]);
          }
          const double rtt = c.wtime() - t0;
          if (me == 0 && i >= 0 && (best_rtt == 0 || rtt < best_rtt)) best_rtt = rtt;
        }
      });
    });
    const double one_way = best_rtt / 2.0;
    const bool is_bw = leg.bytes > 4;
    p.virt.emplace_back(leg.metric, is_bw ? static_cast<double>(leg.bytes) / one_way / (1 << 20)
                                          : one_way * 1e6);
    collect(p, *cluster);
  }
}

// --- NAS ------------------------------------------------------------------------

void run_nas(Pass& p, const char* kernel, nas::NasClass cls, mpi::ClusterConfig cfg) {
  cfg.nodes = 10;  // the paper's Grid'5000 testbed
  cfg.cyclic_mapping = true;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.pioman = true;
  auto cluster = build_cluster(p, std::move(cfg));
  nas::NasConfig nc;
  nc.cls = cls;
  nc.validate = true;
  nas::NasResult res;
  timed_run(p, [&] { res = nas::run_nas(*cluster, kernel, nc); });
  // A stamp mismatch asserts inside the kernel and ends the process; a
  // validated run that returns is one passed check.
  ++p.checks;
  if (!(res.seconds > 0)) ++p.check_failures;
  p.virt.emplace_back("nas_virtual_s", res.seconds);
  collect(p, *cluster);
}

void run_workload(Pass& p) {
  if (p.opt.workload == "pingpong") {
    run_pingpong(p);
  } else if (p.opt.workload == "cg_s256") {
    mpi::ClusterConfig cfg;
    cfg.procs = p.opt.smoke ? 16 : 256;
    cfg.rails = {net::ib_profile()};
    run_nas(p, "CG", nas::NasClass::S, cfg);
  } else if (p.opt.workload == "ft_a64") {
    mpi::ClusterConfig cfg;
    cfg.procs = p.opt.smoke ? 8 : 64;
    cfg.rails = {net::ib_profile(), net::mx_profile()};
    cfg.strategy = nmad::StrategyKind::CostModel;
    run_nas(p, "FT", p.opt.smoke ? nas::NasClass::S : nas::NasClass::A, cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", p.opt.workload.c_str());
    std::exit(2);
  }
}

// --- host reference kernel ------------------------------------------------------

/// A fixed mix of the host work the simulator does — dependent loads over an
/// 8 MiB random cycle, heap and hash-map churn, 1 MiB copies — with no
/// simulator code in it, so its time tracks the host's speed and not the
/// program's. The buffers are built and touched before timing (page faults
/// are not what is measured), and the figure is the median of kReps timed
/// repetitions, so one burst of contention does not decide it.
double reference_kernel() {
  constexpr int kReps = 5;
  std::uint64_t rng = 42, sink = 0;
  constexpr std::uint32_t kCycle = 1u << 21;
  std::vector<std::uint32_t> next(kCycle);
  for (std::uint32_t i = 0; i < kCycle; ++i) next[i] = i;
  for (std::uint32_t i = kCycle - 1; i > 0; --i) {
    std::swap(next[i], next[splitmix64(rng) % i]);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1u << 16);
  std::vector<std::byte> a(1u << 20, std::byte{1}), b(a.size());
  std::vector<double> took;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::uint32_t at = static_cast<std::uint32_t>(rep);
    for (int i = 0; i < 300'000; ++i) at = next[at];
    sink += at;
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < 60'000; ++i) {
      heap.push_back(splitmix64(rng) & 0xffffff);
      std::push_heap(heap.begin(), heap.end());
      table[splitmix64(rng) & 0xffff] += static_cast<std::uint64_t>(i);
      if (i & 1) {
        sink += heap.front();
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
      }
    }
    for (int i = 0; i < 8; ++i) {
      std::memcpy(b.data(), a.data(), a.size());
      a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i) + 1];
    }
    sink += static_cast<std::uint64_t>(b[5]) + table.size();
    took.push_back(seconds_since(t0));
  }
  std::sort(took.begin(), took.end());
  if (sink == 0) std::fprintf(stderr, "reference kernel sink 0\n");  // keeps the work live
  return took[took.size() / 2];
}

// --- JSON output ------------------------------------------------------------------

class Json {
 public:
  void key(const std::string& k) {
    sep();
    quoted(k);
    out_ += ':';
    fresh_ = true;
  }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  void num(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void num(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
  }
  void num(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
  }
  void str(const std::string& s) {
    sep();
    quoted(s);
  }
  void boolean(bool b) {
    sep();
    out_ += b ? "true" : "false";
  }
  template <class T>
  void field(const std::string& k, T v) {
    key(k);
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_convertible_v<T, std::string>) {
      str(v);
    } else {
      num(v);
    }
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  void quoted(const std::string& s) {
    out_ += '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out_ += '\\';
      out_ += ch;
    }
    out_ += '"';
  }
  std::string out_;
  bool fresh_ = true;
};

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void print_pass(const Pass& p) {
  Json j;
  j.open('{');
  j.field("workload", p.opt.workload);
  j.field("seed", p.opt.seed);
  j.field("trace", p.opt.trace);
  j.field("smoke", p.opt.smoke);
  j.key("host");
  j.open('{');
  j.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.field("compiler", NMX_PB_COMPILER);
  j.field("build_type", NMX_PB_BUILD_TYPE);
  j.field("cxx_flags", NMX_PB_CXX_FLAGS);
  j.field("optimized", kOptimized);
  j.close('}');
  j.field("setup_s", p.setup_s);
  j.field("wall_s", p.wall_s);
  j.field("cpu_s", p.cpu_s);
  j.field("peak_rss_mb", p.peak_rss_mb);
  j.field("events", p.events);
  j.field("fiber_stacks", p.fiber_stacks);
  j.field("event_pool_slots", p.pool_slots);
  j.field("closure_heap_allocs", p.closure_heap_allocs);
  j.field("checks", p.checks);
  j.field("check_failures", p.check_failures);
  j.key("virtual");
  j.open('{');
  for (const auto& [k, v] : p.virt) j.field(k, v);
  j.close('}');
  if (p.opt.trace) {
    const LayerRaw& L = p.layer;
    j.key("counters");
    j.open('{');
    for (const auto& [k, v] : L.counters) j.field(k, v);
    j.close('}');
    j.key("gauge_max");
    j.open('{');
    for (const auto& [k, v] : L.gauge_max) j.field(k, v);
    j.close('}');
    j.key("histograms");
    j.open('{');
    for (const auto& [k, h] : L.hists) {
      j.key(k);
      j.open('{');
      j.key("edges");
      j.open('[');
      for (const double e : h.edges) j.num(e);
      j.close(']');
      j.key("counts");
      j.open('[');
      for (const std::uint64_t c : h.counts) j.num(c);
      j.close(']');
      j.close('}');
    }
    j.close('}');
    j.key("critpath");
    j.open('{');
    j.field("wall", L.cp_wall);
    j.field("compute", L.cp_compute);
    j.field("wire", L.cp_wire);
    j.field("sw", L.cp_sw);
    j.field("blocked", L.cp_blocked);
    j.field("coll", L.cp_coll);
    j.field("iterations", L.cp_iterations);
    j.close('}');
    j.field("records", L.records);
    j.key("span_kinds");
    j.open('[');
    for (const char* n : kSpanNames) j.str(n);
    j.close(']');
    j.key("spans");
    j.open('[');
    for (const Span& s : p.spans) {
      j.open('[');
      j.num(static_cast<std::int64_t>(s.kind));
      j.num(static_cast<std::int64_t>(s.rank));
      j.num(s.t0_ns);
      j.num(s.t1_ns);
      j.close(']');
    }
    j.close(']');
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Pass p;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      p.opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      p.opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace" && has_value) {
      p.opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--smoke") {
      p.opt.smoke = true;
    } else if (a == "--reference") {
      std::printf("{\"reference_s\":%.9f}\n", reference_kernel());
      return 0;
    } else {
      std::fprintf(stderr, "usage: %s --workload NAME --seed N [--trace 0|1] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  run_workload(p);
  print_pass(p);
  return 0;
}
