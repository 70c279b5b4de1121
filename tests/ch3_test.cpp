// CH3 layer tests: the any-source management lists of §3.2.2 / Figure 3
// (unit level), plus integration scenarios through the full stack — message
// ordering with MPI_ANY_SOURCE, intra-node matches cancelling the list
// entry, deferred known-source receives, the shared-memory rendezvous
// snapshot, and the legacy (non-bypass) path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "ch3/anysource.hpp"
#include "ch3/process.hpp"
#include "harness/netpipe.hpp"
#include "mpi/cluster.hpp"

namespace nmx {
namespace {

// ---------------------------------------------------------------------------
// AnySourceLists unit tests
// ---------------------------------------------------------------------------

struct AsFixture : ::testing::Test {
  std::list<ch3::MpidRequest> pool;
  std::vector<ch3::MpidRequest*> released;

  ch3::MpidRequest* req(int src, int tag, int ctx = 0) {
    pool.emplace_back();
    auto* r = &pool.back();
    r->kind = ch3::MpidRequest::Kind::Recv;
    r->peer = src;
    r->tag = tag;
    r->context = ctx;
    return r;
  }
  ch3::AnySourceLists::ReleaseFn collect() {
    return [this](ch3::MpidRequest* r) { released.push_back(r); };
  }
};

TEST_F(AsFixture, EmptyListsBlockNothing) {
  ch3::AnySourceLists as;
  EXPECT_FALSE(as.blocks(0, 7));
  EXPECT_TRUE(as.empty());
}

TEST_F(AsFixture, AnySourceBlocksSameTagOnly) {
  ch3::AnySourceLists as;
  as.add_any_source(req(mpi::ANY_SOURCE, 7));
  EXPECT_TRUE(as.blocks(0, 7));
  EXPECT_FALSE(as.blocks(0, 8));
  EXPECT_FALSE(as.blocks(1, 7));  // different context
}

TEST_F(AsFixture, WildcardTagBlocksWholeContext) {
  ch3::AnySourceLists as;
  as.add_any_source(req(mpi::ANY_SOURCE, mpi::ANY_TAG));
  EXPECT_TRUE(as.blocks(0, 7));
  EXPECT_TRUE(as.blocks(0, 123));
  EXPECT_FALSE(as.blocks(1, 7));
}

TEST_F(AsFixture, ResolveReleasesDeferredUntilNextAnySource) {
  ch3::AnySourceLists as;
  auto* as1 = req(mpi::ANY_SOURCE, 7);
  as.add_any_source(as1);
  auto* r1 = req(3, 7);
  auto* r2 = req(4, 7);
  as.defer(r1);
  as.defer(r2);
  auto* as2 = req(mpi::ANY_SOURCE, 7);
  as.add_any_source(as2);
  auto* r3 = req(5, 7);
  as.defer(r3);

  as.resolve(as1, collect());
  // r1, r2 released; as2 becomes the head; r3 stays deferred behind it.
  EXPECT_EQ(released, (std::vector<ch3::MpidRequest*>{r1, r2}));
  EXPECT_TRUE(as.blocks(0, 7));
  ASSERT_EQ(as.heads().size(), 1u);
  EXPECT_EQ(as.heads()[0], as2);

  released.clear();
  as.resolve(as2, collect());
  EXPECT_EQ(released, (std::vector<ch3::MpidRequest*>{r3}));
  EXPECT_FALSE(as.blocks(0, 7));
  EXPECT_TRUE(as.empty());
}

TEST_F(AsFixture, HeadsAreOrderedByPostTime) {
  ch3::AnySourceLists as;
  auto* a = req(mpi::ANY_SOURCE, 7);
  auto* b = req(mpi::ANY_SOURCE, 3);
  as.add_any_source(a);
  as.add_any_source(b);
  auto heads = as.heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], a);
  EXPECT_EQ(heads[1], b);
}

// ---------------------------------------------------------------------------
// Full-stack integration
// ---------------------------------------------------------------------------

mpi::ClusterConfig stack_cfg(int nodes, int procs, bool bypass = true) {
  mpi::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.procs = procs;
  cfg.stack = mpi::StackKind::Mpich2Nmad;
  cfg.bypass = bypass;
  return cfg;
}

TEST(AnySourceIntegration, ReceivesFromTwoRemoteSenders) {
  mpi::Cluster cluster(stack_cfg(3, 3));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int seen[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, 7);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, 7);
        seen[st.source - 1]++;
      }
      EXPECT_EQ(seen[0], 1);
      EXPECT_EQ(seen[1], 1);
    } else {
      int v = c.rank() * 100;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, OrderingWithLaterKnownSourceReceive) {
  // AS(tag) posted first, then recv(src=1, tag). Sender 1 sends twice.
  // MPI ordering: the first message must match the any-source request.
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      mpi::Request r_as = c.irecv(&a, sizeof(a), mpi::ANY_SOURCE, 7);
      mpi::Request r_known = c.irecv(&b, sizeof(b), 1, 7);
      auto st = c.wait(r_as);
      c.wait(r_known);
      EXPECT_EQ(a, 111);  // first send goes to the earlier (any-source) recv
      EXPECT_EQ(b, 222);
      EXPECT_EQ(st.source, 1);
    } else {
      int v1 = 111, v2 = 222;
      c.send(&v1, sizeof(v1), 0, 7);
      c.send(&v2, sizeof(v2), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, IntraNodeMessageMatchesAndReleasesDeferred) {
  // Rank 0, rank 1 on node 0; rank 2 remote. AS recv matches the shm
  // message from rank 1; the deferred known-source recv for rank 2 is then
  // posted and completes.
  mpi::ClusterConfig cfg = stack_cfg(2, 3);
  cfg.nodes = 2;  // block mapping: ranks 0,1 on node 0; rank 2 on node 1
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = -1, b = -1;
      mpi::Request r_as = c.irecv(&a, sizeof(a), mpi::ANY_SOURCE, 7);
      mpi::Request r2 = c.irecv(&b, sizeof(b), 2, 7);
      // Tell the senders to go (they are ordered by these sends).
      char go = 1;
      c.send(&go, 1, 1, 1);
      c.send(&go, 1, 2, 1);
      auto st = c.wait(r_as);
      c.wait(r2);
      EXPECT_EQ(st.source, 1);  // shm sender arrives first (lower latency)
      EXPECT_EQ(a, 100);
      EXPECT_EQ(b, 200);
    } else if (c.rank() == 1) {
      char go;
      c.recv(&go, 1, 0, 1);
      int v = 100;
      c.send(&v, sizeof(v), 0, 7);
    } else {
      char go;
      c.recv(&go, 1, 0, 1);
      c.compute(20e-6);  // let the shm message win the race deterministically
      int v = 200;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(AnySourceIntegration, KnownSourceAnyTagReceives) {
  // Regression: a known remote source with MPI_ANY_TAG cannot be posted to
  // NewMadeleine's exact matching — it must go through the wildcard lists.
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), 1, mpi::ANY_TAG);
        EXPECT_EQ(st.tag, 50 + i);
        EXPECT_EQ(v, i * 3);
        EXPECT_EQ(st.source, 1);
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        int v = i * 3;
        c.send(&v, sizeof(v), 0, 50 + i);
      }
    }
  });
}

TEST(AnySourceIntegration, AnyTagWildcardReceives) {
  mpi::Cluster cluster(stack_cfg(2, 2));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, mpi::ANY_TAG);
        EXPECT_EQ(st.tag, 10 + i);  // per-pair FIFO order preserved
        EXPECT_EQ(v, 1000 + i);
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        int v = 1000 + i;
        c.send(&v, sizeof(v), 0, 10 + i);
      }
    }
  });
}

TEST(AnySourceIntegration, ConstantLatencyPenalty) {
  // §4.1.1: the any-source path costs a constant ~300 ns, independent of
  // message size.
  auto one_way = [](bool any_source, std::size_t size) {
    mpi::Cluster cluster(stack_cfg(2, 2));
    double t = 0;
    cluster.run([&](mpi::Comm& c) {
      std::vector<std::byte> buf(size);
      const int src = any_source ? mpi::ANY_SOURCE : 1 - c.rank();
      for (int i = 0; i < 2; ++i) {  // warmup + measured
        const double t0 = c.wtime();
        if (c.rank() == 0) {
          c.send(buf.data(), size, 1, 0);
          c.recv(buf.data(), size, src, 0);
        } else {
          c.recv(buf.data(), size, src, 0);
          c.send(buf.data(), size, 1 - c.rank(), 0);
        }
        if (c.rank() == 0 && i == 1) t = (c.wtime() - t0) / 2;
      }
    });
    return t;
  };
  const double gap_small = one_way(true, 8) - one_way(false, 8);
  const double gap_large = one_way(true, 16384) - one_way(false, 16384);
  EXPECT_NEAR(gap_small, 0.3e-6, 0.05e-6);
  EXPECT_NEAR(gap_large, 0.3e-6, 0.05e-6);
}

// ---------------------------------------------------------------------------
// Shared-memory CH3 rendezvous
// ---------------------------------------------------------------------------

TEST(ShmRendezvous, LateReceiverGetsBytesFromBeforeTheSenderReusedItsBuffer) {
  // The rendezvous snapshot is taken at CTS, just before the send completes:
  // a sender that overwrites and frees its buffer as soon as wait() returns
  // must not change what the (late) receiver gets.
  mpi::Cluster cluster(stack_cfg(1, 2));
  const std::size_t n = 96 * 1024;  // 1.5x the 64 KiB shm rendezvous threshold
  std::vector<std::byte> original(n);
  for (std::size_t i = 0; i < n; ++i) original[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      auto buf = std::make_unique<std::vector<std::byte>>(original);
      mpi::Request r = c.isend(buf->data(), n, 1, 4);
      c.wait(r);
      std::fill(buf->begin(), buf->end(), std::byte{0xee});
      buf.reset();
      int done = 1;
      c.send(&done, sizeof(done), 1, 5);
    } else {
      c.compute(200e-6);  // post well after the RTS has arrived
      std::vector<std::byte> in(n);
      const mpi::Status st = c.recv(in.data(), in.size(), 0, 4);
      EXPECT_EQ(st.count, n);
      EXPECT_TRUE(in == original);
      int done = 0;
      c.recv(&done, sizeof(done), 0, 5);
      EXPECT_EQ(done, 1);
      EXPECT_FALSE(c.iprobe(0, 4).has_value());  // nothing delivered twice
    }
  });
  for (int r = 0; r < 2; ++r) {
    auto& p = dynamic_cast<ch3::Ch3Process&>(cluster.transport(r));
    EXPECT_EQ(p.unexpected_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Send-path selection (§3.1.2): a send to self is a loopback, a send to the
// same node rides Nemesis cells, and a remote send goes straight to
// nm_sr_isend (bypass) or travels as a CH3 packet in a netmod cell (legacy).
// 2 nodes x 2 procs, block mapping: ranks 0 and 1 on node 0, 2 and 3 on 1.
// ---------------------------------------------------------------------------

struct PathCounts {
  std::uint64_t shm_cells = 0;
  std::uint64_t nmad_eager = 0;        ///< nmad eager messages
  std::uint64_t nmad_eager_bytes = 0;  ///< their payload bytes
};

PathCounts read_counts(mpi::Cluster& cluster) {
  const obs::Registry& m = cluster.recorder()->metrics();
  auto value = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = m.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  return {value("shm.cells"), value("nmad.eager.count"), value("nmad.eager.bytes")};
}

class SendPath : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::size_t kLen = 64;

  /// Rank 0 sends kLen bytes to `dst`, which receives them from `src`
  /// (0 or ANY_SOURCE). Returns the traffic counters of that one message.
  static PathCounts one_message(bool bypass, int dst, int src = 0) {
    mpi::ClusterConfig cfg = stack_cfg(2, 4, bypass);
    cfg.trace = true;
    mpi::Cluster cluster(cfg);
    std::vector<std::byte> out(kLen), in(kLen);
    for (std::size_t i = 0; i < kLen; ++i) out[i] = static_cast<std::byte>(i * 7 + 1);
    cluster.run([&](mpi::Comm& c) {
      if (c.rank() == 0 && dst == 0) {
        mpi::Request r = c.irecv(in.data(), kLen, src, 5);
        c.send(out.data(), kLen, 0, 5);
        EXPECT_EQ(c.wait(r).source, 0);
      } else if (c.rank() == 0) {
        c.send(out.data(), kLen, dst, 5);
      } else if (c.rank() == dst) {
        const mpi::Status st = c.recv(in.data(), kLen, src, 5);
        EXPECT_EQ(st.source, 0);
        EXPECT_EQ(st.count, kLen);
      }
    });
    EXPECT_EQ(in, out);
    return read_counts(cluster);
  }
};

TEST_P(SendPath, SelfSendIsALoopback) {
  const PathCounts n = one_message(GetParam(), /*dst=*/0);
  EXPECT_EQ(n.shm_cells, 0u);
  EXPECT_EQ(n.nmad_eager, 0u);
}

TEST_P(SendPath, SameNodeSendRidesNemesisCells) {
  const PathCounts n = one_message(GetParam(), /*dst=*/1);
  EXPECT_EQ(n.shm_cells, 1u);
  EXPECT_EQ(n.nmad_eager, 0u);
}

TEST_P(SendPath, RemoteSendGoesToNewMadeleine) {
  const PathCounts n = one_message(GetParam(), /*dst=*/2);
  EXPECT_EQ(n.shm_cells, 0u);
  EXPECT_EQ(n.nmad_eager, 1u);
  // The bypass hands the user buffer to nm_sr_isend as it is; the legacy
  // path sends a netmod cell, the CH3 header followed by the payload.
  EXPECT_EQ(n.nmad_eager_bytes, GetParam() ? kLen : sizeof(nemesis::ShmHdr) + kLen);
}

TEST_P(SendPath, AnySourceReceiveMatchesASameNodeSender) {
  const PathCounts n = one_message(GetParam(), /*dst=*/1, mpi::ANY_SOURCE);
  EXPECT_EQ(n.shm_cells, 1u);
  EXPECT_EQ(n.nmad_eager, 0u);
}

INSTANTIATE_TEST_SUITE_P(Bypass, SendPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "bypass" : "legacy";
                         });

// ---------------------------------------------------------------------------
// Legacy netmod path (bypass = false)
// ---------------------------------------------------------------------------

class LegacyPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LegacyPath, CarriesBytesLikeBypass) {
  mpi::Cluster cluster(stack_cfg(2, 2, /*bypass=*/false));
  const std::size_t n = GetParam();
  std::vector<std::byte> msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::byte>(i & 0xff);
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(msg.data(), msg.size(), 1, 3);
    } else {
      std::vector<std::byte> in(n);
      auto st = c.recv(in.data(), in.size(), 0, 3);
      EXPECT_EQ(st.count, n);
      EXPECT_EQ(in, msg);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, LegacyPath,
                         ::testing::Values(0, 1, 1000, 31999, 32001, 262144, 2097152));

TEST(LegacyPath, AnySourceWorksThroughCentralQueues) {
  mpi::Cluster cluster(stack_cfg(3, 3, /*bypass=*/false));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        auto st = c.recv(&v, sizeof(v), mpi::ANY_SOURCE, 7);
        EXPECT_EQ(v, st.source * 10);
      }
    } else {
      int v = c.rank() * 10;
      c.send(&v, sizeof(v), 0, 7);
    }
  });
}

TEST(LegacyPath, NestedHandshakeCostsMoreThanBypass) {
  // Figure 2: the legacy path runs the CH3 rendezvous *and* NewMadeleine's
  // internal rendezvous — large transfers must be measurably slower.
  auto transfer_time = [](bool bypass) {
    mpi::Cluster cluster(stack_cfg(2, 2, bypass));
    double t = 0;
    cluster.run([&](mpi::Comm& c) {
      // Medium rendezvous size: the extra handshake round trip is not yet
      // amortized by the data transfer.
      std::vector<std::byte> buf(96 * 1024);
      const double t0 = c.wtime();
      if (c.rank() == 0) {
        std::vector<std::byte> in(buf.size());
        c.send(buf.data(), buf.size(), 1, 0);
        c.recv(in.data(), in.size(), 1, 1);
        t = (c.wtime() - t0) / 2;
      } else {
        std::vector<std::byte> in(buf.size());
        c.recv(in.data(), in.size(), 0, 0);
        c.send(buf.data(), buf.size(), 0, 1);
      }
    });
    return t;
  };
  const double legacy = transfer_time(false);
  const double bypass = transfer_time(true);
  EXPECT_GT(legacy, bypass * 1.02);  // at least one extra handshake round
}

TEST(LegacyPath, NetpipeVirtualTimesArePinned) {
  // Exact virtual latency and bandwidth of the legacy path across its
  // regimes: CH3 eager in one netmod cell (0, 4, 31999 B), CH3 rendezvous
  // whose DATA goes eager in nmad (32001 B), and the nested handshake with
  // nmad's own rendezvous underneath (96 KiB, 2 MiB).
  struct Pin {
    std::size_t size;
    double latency_us;
    double bandwidth_MBps;
  };
  const std::vector<Pin> pins = {
      {0, 2.1622628749102, 0},
      {4, 2.1674368321210395, 1.7600038945042573},
      {31999, 43.5526270723891, 700.68389674776029},
      {32001, 37.655156295600968, 810.47417675654981},
      {96 * 1024, 123.10599210892526, 761.53888526440835},
      {2 * 1024 * 1024, 1584.161164522721, 1262.4978094337791},
  };
  std::vector<std::size_t> sizes;
  for (const Pin& p : pins) sizes.push_back(p.size);
  const auto pts = harness::netpipe(stack_cfg(2, 2, /*bypass=*/false), sizes);
  ASSERT_EQ(pts.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pts[i].size, pins[i].size);
    EXPECT_EQ(pts[i].latency_us, pins[i].latency_us) << "size " << pins[i].size;
    EXPECT_EQ(pts[i].bandwidth_MBps, pins[i].bandwidth_MBps) << "size " << pins[i].size;
  }
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 13 + seed) & 0xff);
  return v;
}

// Above the legacy cell payload: a CH3 rendezvous on the network path.
constexpr std::size_t kLegacyRdvBytes = 96 * 1024;

// Spin in iprobe until every (src, tag) pair sits in CH3's unexpected queue,
// so the receive that follows is served from there.
void await_unexpected(mpi::Comm& c, const std::vector<int>& srcs, int tag) {
  for (int src : srcs) {
    std::optional<mpi::Status> st;
    while (!(st = c.iprobe(src, tag))) c.compute(1e-6);
    EXPECT_EQ(st->count, kLegacyRdvBytes);
  }
}

// Nothing left behind: CH3's unexpected queue is empty and every nmad
// request the legacy path created internally has been released.
void expect_drained(mpi::Cluster& cluster) {
  for (int r = 0; r < cluster.config().procs; ++r) {
    auto& p = dynamic_cast<ch3::Ch3Process&>(cluster.transport(r));
    EXPECT_EQ(p.unexpected_count(), 0u) << "rank " << r;
    EXPECT_EQ(p.core().outstanding_requests(), 0u) << "rank " << r;
  }
}

TEST(LegacyPath, RendezvousQueuedBeforeReceiveIsPosted) {
  mpi::Cluster cluster(stack_cfg(2, 2, /*bypass=*/false));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      const auto msg = pattern(kLegacyRdvBytes, 1);
      c.send(msg.data(), msg.size(), 1, 6);
    } else {
      await_unexpected(c, {0}, 6);
      std::vector<std::byte> in(kLegacyRdvBytes);
      const mpi::Status st = c.recv(in.data(), in.size(), 0, 6);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 6);
      EXPECT_EQ(st.count, kLegacyRdvBytes);
      EXPECT_EQ(in, pattern(kLegacyRdvBytes, 1));
    }
  });
  expect_drained(cluster);
}

TEST(LegacyPath, QueuedRendezvousReceivedWithAnySource) {
  mpi::Cluster cluster(stack_cfg(3, 3, /*bypass=*/false));
  cluster.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      await_unexpected(c, {1, 2}, 8);
      std::vector<int> seen;
      for (int i = 0; i < 2; ++i) {
        std::vector<std::byte> in(kLegacyRdvBytes);
        const mpi::Status st = c.recv(in.data(), in.size(), mpi::ANY_SOURCE, 8);
        EXPECT_EQ(st.tag, 8);
        EXPECT_EQ(st.count, kLegacyRdvBytes);
        EXPECT_EQ(in, pattern(kLegacyRdvBytes, st.source));
        seen.push_back(st.source);
      }
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    } else {
      const auto msg = pattern(kLegacyRdvBytes, c.rank());
      c.send(msg.data(), msg.size(), 0, 8);
    }
  });
  expect_drained(cluster);
}

TEST(LegacyPath, PiomanProgressesEagerAndRendezvous) {
  // PIOMan services the legacy control channel in the background: the
  // receiver finds both messages queued after computing, then receives
  // them; the reply rendezvous meets an already posted receive.
  mpi::ClusterConfig cfg = stack_cfg(2, 2, /*bypass=*/false);
  cfg.pioman = true;
  mpi::Cluster cluster(cfg);
  cluster.run([&](mpi::Comm& c) {
    const int peer = 1 - c.rank();
    const auto small = pattern(4, 5);
    const auto big = pattern(kLegacyRdvBytes, c.rank());
    std::vector<std::byte> in(kLegacyRdvBytes);
    if (c.rank() == 0) {
      c.send(small.data(), small.size(), peer, 2);
      c.send(big.data(), big.size(), peer, 3);
      const mpi::Status st = c.recv(in.data(), in.size(), peer, 4);
      EXPECT_EQ(st.source, peer);
      EXPECT_EQ(st.tag, 4);
      EXPECT_EQ(st.count, kLegacyRdvBytes);
      EXPECT_EQ(in, pattern(kLegacyRdvBytes, peer));
    } else {
      c.compute(300e-6);
      EXPECT_TRUE(c.iprobe(peer, 2).has_value());
      EXPECT_TRUE(c.iprobe(peer, 3).has_value());
      std::vector<std::byte> in_small(4);
      mpi::Status st = c.recv(in_small.data(), in_small.size(), peer, 2);
      EXPECT_EQ(st.source, peer);
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(st.count, 4u);
      EXPECT_EQ(in_small, small);
      st = c.recv(in.data(), in.size(), peer, 3);
      EXPECT_EQ(st.source, peer);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.count, kLegacyRdvBytes);
      EXPECT_EQ(in, pattern(kLegacyRdvBytes, peer));
      c.send(big.data(), big.size(), peer, 4);
    }
  });
  expect_drained(cluster);
}

}  // namespace
}  // namespace nmx
