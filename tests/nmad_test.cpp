// NewMadeleine core tests: sampling/splitting, strategies (aggregation,
// rail selection), eager/rendezvous protocols, tag matching order (including
// out-of-sequence arrivals), probes, gated progress and the multirail data
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <set>

#include "nmad/core.hpp"
#include "sim/fault.hpp"

namespace nmx::nmad {
namespace {

/// Register `core` as its proc's endpoint in `eps` (as mpi::Cluster does).
void attach(net::Endpoints<WireMsg>& eps, Core& core) {
  eps.register_proc(core.proc(),
                    [&core](int rail, WireMsg&& m) { core.rx_wire(rail, std::move(m)); });
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(Sampling, FitRecoversLinkParameters) {
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric(eng, topo);
  Sampling s(fabric, {0, 1});
  ASSERT_EQ(s.num_rails(), 2u);
  // alpha ~ wire latency + per-message; beta ~ NIC bandwidth.
  EXPECT_NEAR(s.rails()[0].alpha, calib::kIbWireLatency + calib::kIbPerMessage, 0.1e-6);
  EXPECT_NEAR(s.rails()[0].beta, calib::kIbBandwidth, 1e6);
  EXPECT_NEAR(s.rails()[1].beta, calib::kMxBandwidth, 1e6);
  EXPECT_EQ(s.fastest(), 0);  // IB has the lower latency
}

TEST(Sampling, SmallMessagesGoEntirelyToFastestRail) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto shares = s.split(4096, 16384);
  EXPECT_EQ(shares[0], 4096u);
  EXPECT_EQ(shares[1], 0u);
}

TEST(Sampling, EqualRailsSplitEvenly) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split(1 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{1} << 20);
  EXPECT_NEAR(static_cast<double>(shares[0]), static_cast<double>(shares[1]), 2.0);
}

TEST(Sampling, AsymmetricRailsSplitProportionallyToBandwidth) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split(3 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{3} << 20);
  // Equal finish time => shares proportional to beta (alphas equal).
  EXPECT_NEAR(static_cast<double>(shares[0]) / static_cast<double>(shares[1]), 2.0, 0.01);
}

TEST(Sampling, SlowRailDroppedWhenShareBelowMinChunk) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 10e6}});  // 200x slower
  auto shares = s.split(100000, 16384);
  EXPECT_EQ(shares[1], 0u);  // its share would be ~500 bytes: dropped
  EXPECT_EQ(shares[0], 100000u);
}

TEST(Sampling, SplitAccountsForAlphaDifferences) {
  // Same bandwidth, one rail much higher latency: it gets a smaller share.
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 200e-6, 1e9}});
  auto shares = s.split(1 << 20, 16384);
  EXPECT_EQ(shares[0] + shares[1], std::size_t{1} << 20);
  EXPECT_GT(shares[0], shares[1]);
}

TEST(Sampling, EvenSplitIsNaive) {
  Sampling s({RailPerf{0, 1e-6, 2e9}, RailPerf{1, 1e-6, 1e9}});
  auto shares = s.split_even(1000);
  EXPECT_EQ(shares[0], 500u);
  EXPECT_EQ(shares[1], 500u);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

// Payload bytes for entries whose contents a test never reads.
const std::vector<std::byte> kFill(1_MiB);

Entry eager_entry(int dst, Tag tag, std::uint32_t seq, std::size_t n) {
  Entry e;
  e.kind = Entry::Kind::Eager;
  e.dst_proc = dst;
  e.tag = tag;
  e.seq = seq;
  e.bytes = Payload::copy_of(kFill.data(), n);
  return e;
}

TEST(Strategy, DefaultSendsOneEntryPerPacket) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Default, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  strat->enqueue(eager_entry(1, 7, 1, 100));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_EQ(wm2->entries.size(), 1u);
  EXPECT_FALSE(strat->next(0, 0).has_value());
  EXPECT_FALSE(strat->pending());
}

TEST(Strategy, AggregPacksSmallEntriesToSameDestination) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.max_aggregate = 4096;
  auto strat = make_strategy(StrategyKind::Aggreg, s, opts);
  for (std::uint32_t i = 0; i < 5; ++i) strat->enqueue(eager_entry(1, 7, i, 500));
  auto wm = strat->next(0, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries.size(), 5u);  // 2500 bytes <= 4096 cap
  // sequence order preserved inside the packet
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(wm->entries[i].seq, i);
}

TEST(Strategy, AggregRespectsByteCap) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.max_aggregate = 1000;
  auto strat = make_strategy(StrategyKind::Aggreg, s, opts);
  for (std::uint32_t i = 0; i < 4; ++i) strat->enqueue(eager_entry(1, 7, i, 400));
  auto wm = strat->next(0, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries.size(), 2u);  // 800 <= 1000 < 1200
}

TEST(Strategy, AggregDoesNotMixDestinations) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Aggreg, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  strat->enqueue(eager_entry(2, 7, 0, 100));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_NE(wm1->dst_proc, wm2->dst_proc);  // round-robin across destinations
}

TEST(Strategy, RdvChunksTravelAlone) {
  Sampling s({RailPerf{0, 1e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::Aggreg, s, {});
  strat->enqueue(eager_entry(1, 7, 0, 100));
  Entry chunk;
  chunk.kind = Entry::Kind::RdvChunk;
  chunk.dst_proc = 1;
  chunk.rail = 0;
  chunk.bytes = Payload::view_of(kFill.data(), 100000);
  strat->enqueue(std::move(chunk));
  auto wm1 = strat->next(0, 0);
  ASSERT_TRUE(wm1.has_value());
  EXPECT_EQ(wm1->entries.size(), 1u);
  EXPECT_EQ(wm1->entries[0].kind, Entry::Kind::Eager);
  auto wm2 = strat->next(0, 0);
  ASSERT_TRUE(wm2.has_value());
  EXPECT_EQ(wm2->entries.size(), 1u);
  EXPECT_EQ(wm2->entries[0].kind, Entry::Kind::RdvChunk);
}

TEST(Strategy, CostModelSteersSmallEntriesAwayFromBusyRail) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::CostModel, s, {});
  // Idle fabric: the cost model agrees with the fastest-rail rule.
  strat->enqueue(eager_entry(1, 7, 0, 100));
  EXPECT_TRUE(strat->next(0, 0).has_value());
  EXPECT_EQ(strat->steals(0), 0u);
  EXPECT_EQ(strat->steals(1), 0u);
  // Rail 0 booked for a millisecond: the entry's predicted completion is
  // earlier on rail 1, so it is stolen from the fastest rail.
  strat->set_load_probe([] {
    RailLoad l;
    l.now = 0;
    l.busy_until = {1e-3, 0.0};
    return l;
  });
  strat->enqueue(eager_entry(1, 7, 1, 100));
  EXPECT_FALSE(strat->next(0, 0).has_value());
  auto wm = strat->next(1, 0);
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->entries[0].seq, 1u);
  EXPECT_EQ(strat->steals(1), 1u);
}

TEST(Strategy, CostModelQueuedBacklogCountsAsLoad) {
  // No probe at all: the rail's own queued bytes must still steer traffic.
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 2e-6, 1e9}});
  auto strat = make_strategy(StrategyKind::CostModel, s, {});
  // Fill rail 0 with ~1 ms of queued bytes without draining it.
  strat->enqueue(eager_entry(1, 7, 0, 1 << 20));
  EXPECT_GT(strat->backlog_bytes(0), std::size_t{1} << 20);
  strat->enqueue(eager_entry(1, 7, 1, 100));
  EXPECT_GT(strat->backlog_bytes(1), 0u);  // steered to the empty rail
  EXPECT_EQ(strat->steals(1), 1u);
}

TEST(Strategy, CostModelCarvesRendezvousIntoQuantumChunks) {
  Sampling s({RailPerf{0, 1e-6, 1e9}, RailPerf{1, 1e-6, 1e9}});
  StrategyOptions opts;
  opts.min_split_chunk = 4_KiB;
  opts.rdv_quantum = 64_KiB;
  auto strat = make_strategy(StrategyKind::CostModel, s, opts);
  ASSERT_TRUE(strat->plans_rdv_chunks());

  const std::size_t len = 300_KiB;
  std::vector<std::byte> src(len);
  for (std::size_t i = 0; i < len; ++i) src[i] = static_cast<std::byte>(i * 13);
  Entry job;
  job.kind = Entry::Kind::RdvChunk;
  job.dst_proc = 1;
  job.rdv_id = 1;
  job.rail = -1;  // unplanned: the strategy carves it
  job.bytes = Payload::view_of(src.data(), len);
  strat->enqueue(std::move(job));
  EXPECT_EQ(strat->rdv_backlog_bytes(), len);

  std::vector<std::size_t> per_rail(2, 0);
  std::vector<std::pair<std::size_t, std::size_t>> cover;
  int rail = 0;
  while (strat->pending()) {
    auto wm = strat->next(rail, 0);
    rail = 1 - rail;  // alternate like two idle drivers would
    if (!wm) continue;
    ASSERT_EQ(wm->entries.size(), 1u);
    const Entry& e = wm->entries[0];
    ASSERT_EQ(e.kind, Entry::Kind::RdvChunk);
    EXPECT_LE(e.bytes.size(), opts.rdv_quantum);  // quantum respected
    EXPECT_GT(e.bytes.size(), 0u);
    // Each carve is a sub-view of the job, not a copy.
    EXPECT_EQ(e.bytes.data(), src.data() + e.offset);
    EXPECT_TRUE(std::equal(e.bytes.data(), e.bytes.data() + e.bytes.size(),
                           src.begin() + static_cast<std::ptrdiff_t>(e.offset)));
    per_rail[static_cast<std::size_t>(e.rail)] += e.bytes.size();
    cover.emplace_back(e.offset, e.bytes.size());
  }
  EXPECT_EQ(strat->rdv_backlog_bytes(), 0u);
  EXPECT_GT(per_rail[0], 0u);  // equal rails: both carry data
  EXPECT_GT(per_rail[1], 0u);
  std::sort(cover.begin(), cover.end());
  std::size_t cursor = 0;
  for (const auto& [off, n] : cover) {
    EXPECT_EQ(off, cursor);  // contiguous, no gap, no overlap
    cursor = off + n;
  }
  EXPECT_EQ(cursor, len);
}

// ---------------------------------------------------------------------------
// Core: two processes on two nodes exchanging through the fabric.
// ---------------------------------------------------------------------------

struct CoreFixture : ::testing::Test {
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric{eng, topo};
  net::Endpoints<WireMsg> eps{topo.num_procs()};
  WirePool pool;
  Config cfg;

  std::unique_ptr<Core> a;  // proc 0
  std::unique_ptr<Core> b;  // proc 1

  void make_cores(StrategyKind strat = StrategyKind::Aggreg, std::vector<int> rails = {0}) {
    cfg.strategy = strat;
    cfg.rails = std::move(rails);
    a = std::make_unique<Core>(eng, fabric, eps, pool, 0, cfg);
    b = std::make_unique<Core>(eng, fabric, eps, pool, 1, cfg);
    attach(eps, *a);
    attach(eps, *b);
    // Always-in-progress processes (the MPI layer provides the bracketing).
    a->enter_progress();
    b->enter_progress();
  }

  std::vector<std::byte> pattern(std::size_t n, int seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(seed)) & 0xff);
    }
    return v;
  }
};

TEST_F(CoreFixture, EagerSendRecvCarriesBytes) {
  make_cores();
  auto msg = pattern(1024, 1);
  std::vector<std::byte> dst(1024);
  Request* sr = a->isend(1, 42, msg.data(), msg.size());
  Request* rr = b->irecv(0, 42, dst.data(), dst.size());
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(rr->received, msg.size());
  EXPECT_EQ(dst, msg);
  a->release(sr);
  b->release(rr);
  EXPECT_EQ(a->outstanding_requests(), 0u);
}

TEST_F(CoreFixture, UnexpectedEagerMatchesLaterIrecv) {
  make_cores();
  auto msg = pattern(100, 2);
  a->isend(1, 5, msg.data(), msg.size());
  eng.run();
  EXPECT_EQ(b->unexpected_count(), 1u);
  std::vector<std::byte> dst(100);
  Request* rr = b->irecv(0, 5, dst.data(), dst.size());
  EXPECT_TRUE(rr->completed);  // consumed synchronously from the buffers
  EXPECT_EQ(dst, msg);
  EXPECT_EQ(b->unexpected_count(), 0u);
}

TEST_F(CoreFixture, RendezvousTransfersLargeMessage) {
  make_cores();
  const std::size_t big = 1 << 20;
  auto msg = pattern(big, 3);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(a->rdv_started(), 1u);
  EXPECT_EQ(dst, msg);
}

TEST_F(CoreFixture, MultirailSplitsRendezvousAcrossBothRails) {
  make_cores(StrategyKind::SplitBalance, {0, 1});
  const std::size_t big = 8 << 20;
  auto msg = pattern(big, 4);
  std::vector<std::byte> dst(big);
  b->irecv(0, 9, dst.data(), dst.size());
  a->isend(1, 9, msg.data(), msg.size());
  const std::size_t before = fabric.packets_sent();
  eng.run();
  EXPECT_EQ(dst, msg);
  // RTS + CTS + two data chunks (one per rail) + the receiver's RdvFin
  // completion ack = 5 packets.
  EXPECT_EQ(fabric.packets_sent() - before, 5u);
}

TEST_F(CoreFixture, CostModelRendezvousDeliversInQuantumChunks) {
  make_cores(StrategyKind::CostModel, {0, 1});
  const std::size_t big = 8_MiB;  // > 4 chunks at the default 2 MiB quantum
  auto msg = pattern(big, 13);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  const std::size_t before = fabric.packets_sent();
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(dst, msg);
  // RTS + CTS + at least ceil(8 MiB / 2 MiB) data chunks.
  EXPECT_GE(fabric.packets_sent() - before, 6u);
}

TEST(CostModelCore, MatchesSplitBalanceOnIdleFabric) {
  // Same transfer, both strategies, each on a fresh fabric: on an idle
  // fabric the cost model's split degenerates to the sampled one, so
  // completion times must be close.
  auto timed = [](StrategyKind k) {
    sim::Engine eng;
    net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
    net::Fabric fabric(eng, topo);
    net::Endpoints<WireMsg> eps(topo.num_procs());
    WirePool pool;
    Config cfg;
    cfg.strategy = k;
    cfg.rails = {0, 1};
    Core a(eng, fabric, eps, pool, 0, cfg);
    Core b(eng, fabric, eps, pool, 1, cfg);
    attach(eps, a);
    attach(eps, b);
    a.enter_progress();
    b.enter_progress();
    const std::size_t big = 4_MiB;
    std::vector<std::byte> msg(big, std::byte{0x5a});
    std::vector<std::byte> dst(big);
    b.irecv(0, 9, dst.data(), dst.size());
    a.isend(1, 9, msg.data(), msg.size());
    eng.run();
    EXPECT_EQ(dst, msg);
    return eng.now();
  };
  const Time split = timed(StrategyKind::SplitBalance);
  const Time cost = timed(StrategyKind::CostModel);
  EXPECT_LT(cost, split * 1.05);  // no idle-fabric regression
}

// ---------------------------------------------------------------------------
// Zero-copy rendezvous: every data chunk that reaches the receiver is a view
// of the sender's buffer at the chunk's offset, not a copy — whether the core
// planned it (SplitBalance), the strategy carved it (CostModel) or a rail
// death re-split it onto the survivor. The receiver's landing memcpy is then
// the one host copy of each payload byte.
// ---------------------------------------------------------------------------

struct ZeroCopyFixture : ::testing::Test {
  struct Landed {
    std::uint64_t rdv_id;
    std::size_t offset;
    const std::byte* data;
    std::size_t len;
    int fabric_rail;
  };

  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(2, 2, {net::ib_profile(), net::mx_profile()});
  net::Fabric fabric{eng, topo};
  net::Endpoints<WireMsg> eps{topo.num_procs()};
  std::vector<Landed> landed;
  std::vector<std::vector<std::byte>> sent;
  std::vector<std::uint64_t> rdv_ids;  ///< per message, from its send request

  /// Two 8 MiB rendezvous 0 -> 1 (the second queues behind the first);
  /// `rail1_down_at` > 0 kills rail 1 at that time.
  void run(StrategyKind kind, Time rail1_down_at = 0) {
    sim::FaultSpec spec;
    if (rail1_down_at > 0) spec.rail_down.push_back({rail1_down_at, /*rail=*/1});
    sim::FaultPlan plan(spec);
    fabric.set_fault_plan(&plan);
    Config cfg;
    cfg.strategy = kind;
    cfg.rails = {0, 1};
    cfg.fault_plan = &plan;
    WirePool pool;
    Core a(eng, fabric, eps, pool, 0, cfg);
    Core b(eng, fabric, eps, pool, 1, cfg);
    attach(eps, a);
    // The receiver's endpoint is a tap: it records each chunk, then hands the
    // packet to the core.
    eps.register_proc(1, [this, &b](int rail, WireMsg&& m) {
      for (const Entry& e : m.entries) {
        if (e.kind == Entry::Kind::RdvChunk) {
          landed.push_back({e.rdv_id, e.offset, e.bytes.data(), e.bytes.size(), rail});
        }
      }
      b.rx_wire(rail, std::move(m));
    });
    plan.arm(eng);
    a.enter_progress();
    b.enter_progress();

    const std::size_t big = 8_MiB;
    std::vector<std::vector<std::byte>> got(2, std::vector<std::byte>(big));
    for (int m = 0; m < 2; ++m) {
      sent.emplace_back(big);
      for (std::size_t i = 0; i < big; ++i) {
        sent.back()[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(m) * 91) & 0xff);
      }
    }
    std::vector<Request*> sends;
    for (int m = 0; m < 2; ++m) {
      b.irecv(0, m, got[static_cast<std::size_t>(m)].data(), big);
      sends.push_back(a.isend(1, m, sent[static_cast<std::size_t>(m)].data(), big));
      rdv_ids.push_back(sends.back()->rdv_id);
    }
    eng.run();
    fabric.set_fault_plan(nullptr);
    for (int m = 0; m < 2; ++m) {
      ASSERT_TRUE(sends[static_cast<std::size_t>(m)]->completed);
      EXPECT_EQ(got[static_cast<std::size_t>(m)], sent[static_cast<std::size_t>(m)]);
    }
  }

  /// Every landed chunk points into its own message's send buffer at its
  /// offset, and the chunks of each message tile it exactly once.
  void expect_chunks_view_the_send_buffers() {
    ASSERT_FALSE(landed.empty());
    std::vector<std::size_t> covered(rdv_ids.size(), 0);
    for (const Landed& c : landed) {
      const auto m = static_cast<std::size_t>(
          std::find(rdv_ids.begin(), rdv_ids.end(), c.rdv_id) - rdv_ids.begin());
      ASSERT_LT(m, rdv_ids.size()) << "chunk of an unknown rendezvous";
      EXPECT_EQ(c.data, sent[m].data() + c.offset) << "chunk was copied, not viewed";
      covered[m] += c.len;
    }
    for (std::size_t m = 0; m < rdv_ids.size(); ++m) EXPECT_EQ(covered[m], sent[m].size());
  }
};

TEST_F(ZeroCopyFixture, SplitBalancePlannedChunksViewTheSenderBuffer) {
  run(StrategyKind::SplitBalance);
  expect_chunks_view_the_send_buffers();
  EXPECT_EQ(landed.size(), 4u);  // one chunk per rail per message
}

TEST_F(ZeroCopyFixture, CostModelCarvedChunksViewTheSenderBuffer) {
  run(StrategyKind::CostModel);
  expect_chunks_view_the_send_buffers();
  EXPECT_GE(landed.size(), 8u);  // at least 8 MiB / 2 MiB quantum per message
}

TEST_F(ZeroCopyFixture, RailDownResplitChunksViewTheSenderBuffer) {
  // Rail 1 dies while the first message drains: the second message's rail-1
  // chunk, still queued, is displaced and re-split onto rail 0.
  run(StrategyKind::SplitBalance, /*rail1_down_at=*/1e-3);
  expect_chunks_view_the_send_buffers();
  const auto resplit = std::find_if(landed.begin(), landed.end(), [](const Landed& c) {
    return c.fabric_rail == 0 && c.offset > 0;
  });
  EXPECT_NE(resplit, landed.end()) << "no rail-1 share was re-split onto rail 0";
}

TEST_F(CoreFixture, PerTagFifoMatchingOrder) {
  make_cores();
  auto m1 = pattern(64, 5);
  auto m2 = pattern(64, 6);
  std::vector<std::byte> d1(64), d2(64);
  Request* r1 = b->irecv(0, 3, d1.data(), 64);
  Request* r2 = b->irecv(0, 3, d2.data(), 64);
  a->isend(1, 3, m1.data(), 64);
  a->isend(1, 3, m2.data(), 64);
  eng.run();
  EXPECT_TRUE(r1->completed && r2->completed);
  EXPECT_EQ(d1, m1);  // first posted gets first sent
  EXPECT_EQ(d2, m2);
}

TEST_F(CoreFixture, DifferentTagsMatchIndependently) {
  make_cores();
  auto m1 = pattern(64, 7);
  auto m2 = pattern(64, 8);
  std::vector<std::byte> d1(64), d2(64);
  Request* r2 = b->irecv(0, 20, d2.data(), 64);
  Request* r1 = b->irecv(0, 10, d1.data(), 64);
  a->isend(1, 10, m1.data(), 64);
  a->isend(1, 20, m2.data(), 64);
  eng.run();
  EXPECT_TRUE(r1->completed && r2->completed);
  EXPECT_EQ(d1, m1);
  EXPECT_EQ(d2, m2);
}

TEST_F(CoreFixture, OutOfSequenceArrivalsMatchInSendOrder) {
  // A rendezvous then an eager on one (peer, tag). The fault plan holds the
  // Rts back, so the eager (seq 1) lands first and must wait in the channel's
  // out-of-order stash until seq 0 has matched: the first posted receive
  // gets the first message sent.
  sim::FaultSpec spec;
  sim::FaultSpec::EntryFault delay_rts;
  delay_rts.kind = static_cast<int>(Entry::Kind::Rts);
  delay_rts.delay_p = 1.0;
  delay_rts.delay = 50e-6;
  spec.entry_faults.push_back(delay_rts);
  sim::FaultPlan plan(spec);
  cfg.fault_plan = &plan;
  make_cores();
  const std::size_t big = 1_MiB;
  auto m1 = pattern(big, 14);
  auto m2 = pattern(64, 15);
  std::vector<std::byte> d1(big), d2(big);
  Request* r1 = b->irecv(0, 4, d1.data(), d1.size());
  Request* r2 = b->irecv(0, 4, d2.data(), d2.size());
  a->isend(1, 4, m1.data(), m1.size());
  a->isend(1, 4, m2.data(), m2.size());
  eng.run();
  EXPECT_EQ(plan.delays(), 1u);
  ASSERT_TRUE(r1->completed && r2->completed);
  EXPECT_EQ(r1->received, big);
  EXPECT_EQ(d1, m1);
  EXPECT_EQ(r2->received, m2.size());
  EXPECT_TRUE(std::equal(m2.begin(), m2.end(), d2.begin()));
}

TEST_F(CoreFixture, ProbeSeesOldestUnexpected) {
  make_cores();
  auto m = pattern(256, 9);
  a->isend(1, 77, m.data(), m.size());
  eng.run();
  auto p = b->probe(std::nullopt, TagSelector::any());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src, 0);
  EXPECT_EQ(p->tag, 77u);
  EXPECT_EQ(p->len, 256u);
  // Probe is non-destructive.
  EXPECT_TRUE(b->probe(std::nullopt, TagSelector::exact(77)).has_value());
  EXPECT_FALSE(b->probe(std::nullopt, TagSelector::exact(78)).has_value());
  EXPECT_FALSE(b->probe(5, TagSelector::any()).has_value());
}

TEST_F(CoreFixture, OnUnexpectedHookFires) {
  make_cores();
  int hooks = 0;
  ProbeInfo seen;
  b->set_on_unexpected([&](const ProbeInfo& info) {
    ++hooks;
    seen = info;
  });
  auto m = pattern(64, 10);
  a->isend(1, 55, m.data(), m.size());
  eng.run();
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(seen.src, 0);
  EXPECT_EQ(seen.tag, 55u);
}

TEST_F(CoreFixture, GatedInjectionWaitsForProgress) {
  make_cores();
  a->leave_progress();  // sender's application is "computing"
  auto m = pattern(64, 11);
  std::vector<std::byte> d(64);
  Request* rr = b->irecv(0, 1, d.data(), 64);
  Request* sr = a->isend(1, 1, m.data(), 64);
  eng.run();  // nothing can move: injection is gated
  EXPECT_FALSE(sr->completed);
  EXPECT_FALSE(rr->completed);
  EXPECT_TRUE(a->has_gated_work());
  a->enter_progress();  // "the application entered an MPI call"
  eng.run();
  EXPECT_TRUE(sr->completed);
  EXPECT_TRUE(rr->completed);
  EXPECT_EQ(d, m);
}

TEST_F(CoreFixture, AsyncNotifierFiresWhenGatedWorkAppears) {
  make_cores();
  a->leave_progress();
  int notified = 0;
  a->set_async_notifier([&] { ++notified; });
  auto m = pattern(64, 12);
  a->isend(1, 1, m.data(), 64);
  EXPECT_GT(notified, 0);
}

TEST_F(CoreFixture, AggregationReducesWirePackets) {
  make_cores(StrategyKind::Aggreg);
  // Queue several small sends while the sender is gated, then open the gate:
  // the strategy packs them into one wire packet.
  a->leave_progress();
  std::vector<std::vector<std::byte>> msgs;
  std::vector<std::vector<std::byte>> dsts;
  msgs.reserve(6);
  dsts.reserve(6);  // pointers handed to irecv must stay stable
  for (int i = 0; i < 6; ++i) {
    msgs.push_back(pattern(200, i));
    dsts.emplace_back(200);
    b->irecv(0, static_cast<Tag>(i), dsts.back().data(), 200);
  }
  for (int i = 0; i < 6; ++i) a->isend(1, static_cast<Tag>(i), msgs[static_cast<std::size_t>(i)].data(), 200);
  const std::size_t before = fabric.packets_sent();
  a->enter_progress();
  eng.run();
  EXPECT_EQ(fabric.packets_sent() - before, 1u);  // 6 sends, one packet
  for (int i = 0; i < 6; ++i) EXPECT_EQ(dsts[static_cast<std::size_t>(i)], msgs[static_cast<std::size_t>(i)]);
}

TEST_F(CoreFixture, ZeroByteMessageCompletes) {
  make_cores();
  Request* rr = b->irecv(0, 2, nullptr, 0);
  Request* sr = a->isend(1, 2, nullptr, 0);
  eng.run();
  EXPECT_TRUE(sr->completed && rr->completed);
  EXPECT_EQ(rr->received, 0u);
}

TEST_F(CoreFixture, LegacyCtsPathStillCompletesRendezvous) {
  // advertise_rdv_load=false: the grant is the historical 16-byte CTS and the
  // sender falls back to the one-ended split. Data must still flow.
  cfg.advertise_rdv_load = false;
  make_cores(StrategyKind::CostModel, {0, 1});
  const std::size_t big = 1_MiB;
  auto msg = pattern(big, 21);
  std::vector<std::byte> dst(big);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  EXPECT_TRUE(sr->completed && rr->completed);
  EXPECT_EQ(dst, msg);
}

// ---------------------------------------------------------------------------
// Core: three processes on three nodes.
// ---------------------------------------------------------------------------

struct ThreeCoreFixture : ::testing::Test {
  sim::Engine eng;
  net::Topology topo = net::Topology::blocked(3, 3, {net::ib_profile()});
  net::Fabric fabric{eng, topo};
  net::Endpoints<WireMsg> eps{topo.num_procs()};
  WirePool pool;
  Config cfg;
  std::unique_ptr<Core> a;  // proc 0
  std::unique_ptr<Core> b;  // proc 1
  std::unique_ptr<Core> c;  // proc 2

  void make_cores() {
    cfg.rails = {0};
    a = std::make_unique<Core>(eng, fabric, eps, pool, 0, cfg);
    b = std::make_unique<Core>(eng, fabric, eps, pool, 1, cfg);
    c = std::make_unique<Core>(eng, fabric, eps, pool, 2, cfg);
    attach(eps, *a);
    attach(eps, *b);
    attach(eps, *c);
    a->enter_progress();
    b->enter_progress();
    c->enter_progress();
  }
};

TEST_F(ThreeCoreFixture, ProbeFiltersBySourceAndWildcardTakesOldest) {
  make_cores();
  std::vector<std::byte> m(32, std::byte{0x3c});
  c->isend(1, 9, m.data(), 32);  // proc 2 lands first...
  eng.run();
  a->isend(1, 7, m.data(), 16);  // ...then proc 0, whose (src, tag) sorts lower
  eng.run();
  ASSERT_EQ(b->unexpected_count(), 2u);

  auto from0 = b->probe(0, TagSelector::any());
  ASSERT_TRUE(from0.has_value());
  EXPECT_EQ(from0->src, 0);
  EXPECT_EQ(from0->tag, 7u);
  EXPECT_EQ(from0->len, 16u);
  auto from2 = b->probe(2, TagSelector::any());
  ASSERT_TRUE(from2.has_value());
  EXPECT_EQ(from2->src, 2);
  EXPECT_EQ(from2->tag, 9u);
  EXPECT_FALSE(b->probe(0, TagSelector::exact(9)).has_value());

  auto oldest = b->probe(std::nullopt, TagSelector::any());
  ASSERT_TRUE(oldest.has_value());
  EXPECT_EQ(oldest->src, 2);  // arrival order wins over (src, tag) order
  EXPECT_EQ(oldest->tag, 9u);

  // Consuming the oldest exposes the next arrival.
  std::vector<std::byte> d(32);
  Request* rr = b->irecv(2, 9, d.data(), d.size());
  EXPECT_TRUE(rr->completed);
  auto next = b->probe(std::nullopt, TagSelector::any());
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->src, 0);
}

// One receiving core with well over a thousand (peer, tag) channels: enough
// to grow the matching index many times, partly from inside upcalls that run
// while the core holds a Channel& (ingest_ordered -> deliver_eager ->
// on_unexpected / on_complete post receives on channels that do not exist
// yet). Every message must match its channel in send order and exactly
// once, and probe must name the oldest arrival whatever order the channels
// were created in. Under ASan a Channel& left dangling by growth fails here.
TEST_F(ThreeCoreFixture, ThousandsOfChannelsKeepMatchingOrderAcrossIndexGrowth) {
  make_cores();
  struct Msg {
    std::uint32_t peer = 0;
    std::uint32_t k = 0;
    Tag tag = 0;
  };
  constexpr Tag kTags = 600;             // x 2 peers: 1200 channels on b before the hooks
  constexpr Tag kOnUnexpected = 100000;  // channels the on_unexpected hook creates
  constexpr Tag kOnComplete = 200000;    // channels the on_complete hook creates
  const int senders[2] = {0, 2};
  Core* const cores[3] = {a.get(), b.get(), c.get()};

  std::deque<Msg> rbufs;  // stable receive buffers
  std::vector<Request*> recvs;
  auto post = [&](int src, Tag tag) {
    rbufs.emplace_back();
    recvs.push_back(b->irecv(src, tag, &rbufs.back(), sizeof(Msg)));
  };
  std::set<std::pair<int, Tag>> hooked;  // channels created from an upcall
  std::vector<ProbeInfo> arrivals;       // unexpected arrivals, oldest first
  std::map<std::pair<int, Tag>, std::vector<std::uint32_t>> delivered;  // k, in order
  b->set_on_unexpected([&](const ProbeInfo& info) {
    arrivals.push_back(info);
    if (hooked.insert({info.src, kOnUnexpected + info.tag}).second) {
      post(info.src, kOnUnexpected + info.tag);
    }
  });
  b->set_on_complete([&](Request& r) {
    if (r.kind != Request::Kind::Recv) return;
    Msg m;
    ASSERT_EQ(r.received, sizeof m);
    std::memcpy(&m, r.rbuf, sizeof m);
    EXPECT_EQ(static_cast<int>(m.peer), r.peer);
    EXPECT_EQ(m.tag, r.tag);
    delivered[{r.peer, r.tag}].push_back(m.k);
    if (r.tag < kTags && r.tag % 3 == 0 && hooked.insert({r.peer, kOnComplete + r.tag}).second) {
      post(r.peer, kOnComplete + r.tag);
    }
  });
  auto send = [&](int src, Tag tag, std::uint32_t k) {
    const Msg m{static_cast<std::uint32_t>(src), k, tag};
    cores[src]->isend(1, tag, &m, sizeof m);  // eager: snapshotted at isend
  };

  // One receive pre-posted on every third tag, highest tag first, so channel
  // creation order runs against arrival order.
  for (Tag t = kTags; t-- > 0;) {
    if (t % 3 == 0) {
      for (int s : senders) post(s, t);
    }
  }
  for (std::uint32_t k = 0; k < 2; ++k) {
    for (Tag t = 0; t < kTags; ++t) {
      for (int s : senders) send(s, t, k);
    }
  }
  eng.run();
  // Unexpected: the second message on pre-posted tags, both elsewhere.
  ASSERT_EQ(arrivals.size(), 2 * (kTags / 3 + 2 * (kTags - kTags / 3)));
  ASSERT_EQ(b->unexpected_count(), arrivals.size());

  // Drain the unexpected queues oldest first: at every step probe names the
  // oldest remaining arrival, overall and per source.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const ProbeInfo& want = arrivals[i];
    const std::optional<ProbeInfo> got = b->probe(std::nullopt, TagSelector::any());
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->src, want.src) << "step " << i;
    ASSERT_EQ(got->tag, want.tag) << "step " << i;
    EXPECT_EQ(got->len, sizeof(Msg));
    if (i % 97 == 0) {
      const int other = want.src == 0 ? 2 : 0;
      const auto it = std::find_if(arrivals.begin() + static_cast<std::ptrdiff_t>(i),
                                   arrivals.end(),
                                   [&](const ProbeInfo& p) { return p.src == other; });
      const std::optional<ProbeInfo> from_other = b->probe(other, TagSelector::any());
      ASSERT_EQ(from_other.has_value(), it != arrivals.end());
      if (from_other) {
        EXPECT_EQ(from_other->tag, it->tag);
      }
      EXPECT_EQ(b->probe(std::nullopt, TagSelector::exact(want.tag))->src, want.src);
    }
    post(want.src, want.tag);  // consumes it synchronously
  }
  EXPECT_EQ(b->unexpected_count(), 0u);
  EXPECT_FALSE(b->probe(std::nullopt, TagSelector::any()).has_value());

  // Feed every channel the upcalls created.
  ASSERT_EQ(hooked.size(), 2 * (kTags + kTags / 3));  // 1600 more channels on b
  for (const auto& [src, tag] : hooked) send(src, tag, 0);
  eng.run();

  for (Request* r : recvs) EXPECT_TRUE(r->completed);
  EXPECT_EQ(delivered.size(), 2 * kTags + hooked.size());
  for (const auto& [key, ks] : delivered) {
    const std::vector<std::uint32_t> want =
        key.second < kTags ? std::vector<std::uint32_t>{0, 1} : std::vector<std::uint32_t>{0};
    EXPECT_EQ(ks, want) << "peer " << key.first << " tag " << key.second;
  }
}

// ---------------------------------------------------------------------------
// Rendezvous hardening: the CTS grant must come from the RTS destination and
// must arrive at most once. Pre-fix, handle_cts matched on rdv_id alone, so a
// grant echoed by the wrong process (or replayed) started the payload toward
// whoever asked — data in the wrong buffer, double-queued chunks.
// ---------------------------------------------------------------------------

// Three processes so a third party can forge grants: a (proc 0) is the
// rendezvous sender under attack, b (proc 1) the legitimate destination,
// c (proc 2) a bystander.
struct RdvHardeningFixture : ThreeCoreFixture {
  /// Inject a forged CTS claiming to grant rendezvous `rdv_id`, sent by
  /// `src_proc` to proc 0 — bypassing any Core so the wire contents are
  /// entirely under the test's control.
  void forge_cts(int src_proc, std::uint64_t rdv_id) {
    WireMsg wm;
    wm.src_proc = src_proc;
    wm.dst_proc = 0;
    Entry cts;
    cts.kind = Entry::Kind::Cts;
    cts.dst_proc = 0;
    cts.rdv_id = rdv_id;
    wm.entries.push_back(std::move(cts));
    const net::WirePacket pkt{topo.node_of(src_proc), topo.node_of(0), 0, wm.wire_bytes()};
    fabric.transmit(pkt,
                    [this, wm = std::move(wm)]() mutable { eps.deliver(0, 0, std::move(wm)); });
  }

  std::string run_expecting_assert() {
    try {
      eng.run();
    } catch (const AssertionError& err) {
      return err.message;
    }
    return {};
  }
};

TEST_F(RdvHardeningFixture, CrossWiredCtsFailsLoudly) {
  make_cores();
  // RTS toward proc 1; no recv is posted there, so no legitimate grant exists.
  std::vector<std::byte> msg(128_KiB);
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_FALSE(sr->completed);
  // Proc 2 echoes the (guessable, sender-scoped) rendezvous id.
  forge_cts(/*src_proc=*/2, sr->rdv_id);
  const std::string what = run_expecting_assert();
  EXPECT_NE(what.find("cross-wired"), std::string::npos) << what;
}

TEST_F(RdvHardeningFixture, LateDuplicateCtsIsIgnoredAfterCompletion) {
  // A grant that names a *retired* rendezvous — a wire duplicate or a
  // re-grant that crossed the final chunks — must be dropped, not asserted
  // on and not allowed to re-queue the payload. (A duplicate arriving while
  // the data phase runs is exercised end-to-end by the chaos tier.)
  make_cores();
  std::vector<std::byte> msg(128_KiB);
  std::vector<std::byte> dst(128_KiB);
  Request* rr = b->irecv(0, 9, dst.data(), dst.size());
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_TRUE(sr->completed && rr->completed);
  const std::size_t sent_before = fabric.packets_sent();
  // Replay the grant twice; both are late duplicates of a known, retired id.
  forge_cts(/*src_proc=*/1, sr->rdv_id);
  forge_cts(/*src_proc=*/1, sr->rdv_id);
  eng.run();
  // No assert, and no payload was re-queued: only the two forged packets
  // themselves crossed the wire.
  EXPECT_EQ(fabric.packets_sent(), sent_before + 2);
  EXPECT_EQ(dst, msg);
}

TEST_F(RdvHardeningFixture, CtsForNeverIssuedRendezvousFailsLoudly) {
  // Late duplicates are tolerated, but an id above the allocation watermark
  // was never issued by this sender — that is a forged or corrupted grant
  // and stays a hard failure.
  make_cores();
  std::vector<std::byte> msg(128_KiB);
  Request* sr = a->isend(1, 9, msg.data(), msg.size());
  eng.run();
  ASSERT_FALSE(sr->completed);
  forge_cts(/*src_proc=*/1, sr->rdv_id + 1000);
  const std::string what = run_expecting_assert();
  EXPECT_NE(what.find("unknown rendezvous"), std::string::npos) << what;
}

}  // namespace
}  // namespace nmx::nmad
