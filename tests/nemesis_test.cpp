// Nemesis channel tests: the lock-free MPSC queue (including a real
// multi-threaded stress run — the queue is genuine concurrent code), cell
// fragmentation (cells carry fragment lengths; the message moves with its
// first cell), ordering, flow control and the PIOMan mailbox counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "nemesis/lfqueue.hpp"
#include "nemesis/shm.hpp"

namespace nmx::nemesis {
namespace {

TEST(LockFreeQueue, FifoSingleThread) {
  CellPool pool(8);
  LockFreeQueue q;
  EXPECT_TRUE(q.empty());
  q.enqueue(pool, 3);
  q.enqueue(pool, 1);
  q.enqueue(pool, 5);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.dequeue(pool), 3);
  EXPECT_EQ(q.dequeue(pool), 1);
  EXPECT_EQ(q.dequeue(pool), 5);
  EXPECT_EQ(q.dequeue(pool), kNilCell);
  EXPECT_TRUE(q.empty());
}

TEST(LockFreeQueue, DrainAndRefill) {
  CellPool pool(4);
  LockFreeQueue q;
  for (int round = 0; round < 100; ++round) {
    q.enqueue(pool, round % 4);
    EXPECT_EQ(q.dequeue(pool), round % 4);
    EXPECT_EQ(q.dequeue(pool), kNilCell);
  }
}

TEST(LockFreeQueue, MultiProducerStress) {
  // 4 real producer threads, one consumer: every cell index must come out
  // exactly as many times as it went in, with per-producer FIFO order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  CellPool pool(kProducers * kPerProducer);
  LockFreeQueue q;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.enqueue(pool, p * kPerProducer + i);
      }
    });
  }

  std::vector<int> next_expected(kProducers, 0);
  int got = 0;
  while (got < kProducers * kPerProducer) {
    const CellIndex c = q.dequeue(pool);
    if (c == kNilCell) continue;
    const int p = c / kPerProducer;
    const int i = c % kPerProducer;
    ASSERT_EQ(i, next_expected[static_cast<std::size_t>(p)]) << "per-producer FIFO violated";
    ++next_expected[static_cast<std::size_t>(p)];
    ++got;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.dequeue(pool), kNilCell);
}

std::vector<std::byte> payload_of(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i + static_cast<std::size_t>(seed)) & 0xff);
  return v;
}

struct ShmFixture : ::testing::Test {
  sim::Engine eng;
  ShmNode node{eng, 2};
  std::vector<Message> delivered;

  void SetUp() override {
    node.set_deliver(1, [this](Message&& m) { delivered.push_back(std::move(m)); });
    node.set_deliver(0, [](Message&&) {});
    // Receiver polls whenever cells land (an always-progressing receiver).
    node.set_activity_hook(1, [this] { node.poll(1); });
  }

  void send(std::size_t n, int tag_seed) {
    Message m;
    m.src_local = 0;
    m.header.tag = tag_seed;
    m.payload = payload_of(n, tag_seed);
    node.send(1, std::move(m));
  }
};

TEST_F(ShmFixture, SmallMessageArrivesIntact) {
  send(100, 1);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, payload_of(100, 1));
  EXPECT_EQ(delivered[0].header.tag, 1);
  EXPECT_EQ(delivered[0].src_local, 0);
}

TEST_F(ShmFixture, ZeroByteMessageStillDelivers) {
  send(0, 9);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].payload.empty());
}

TEST_F(ShmFixture, LargeMessageFragmentsAcrossCells) {
  const std::size_t big = 200 * 1024;  // 25 cells at the 8 KiB default
  send(big, 2);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload.size(), big);
  EXPECT_EQ(delivered[0].payload, payload_of(big, 2));
}

TEST_F(ShmFixture, MessagesKeepSendOrder) {
  for (int i = 0; i < 10; ++i) send(1000 + static_cast<std::size_t>(i), i);
  eng.run();
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].header.tag, i);
  }
}

TEST_F(ShmFixture, FlowControlSurvivesMessageLargerThanAllCells) {
  // 64 cells x 8 KiB = 512 KiB of cells; send 2 MiB. Progress requires the
  // receiver to return cells — the activity hook polls, so it must drain.
  const std::size_t huge = 2 * 1024 * 1024;
  send(huge, 3);
  eng.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload.size(), huge);
  EXPECT_EQ(node.cells_in_flight(), 0u);
}

TEST_F(ShmFixture, MailboxCountsArrivedCells) {
  EXPECT_EQ(node.mailbox(1), 0u);
  send(100, 1);
  eng.run();
  EXPECT_EQ(node.mailbox(1), 1u);
  send(20000, 2);  // 3 cells
  eng.run();
  EXPECT_EQ(node.mailbox(1), 4u);
}

TEST(ShmTiming, LatencyMatchesCalibration) {
  // One small message: copy-in + latency + copy-out.
  sim::Engine eng;
  ShmNode node(eng, 2);
  Time arrival = -1;
  node.set_deliver(1, [&](Message&&) { arrival = eng.now(); });
  node.set_activity_hook(1, [&] { node.poll(1); });
  Message m;
  m.src_local = 0;
  m.payload = payload_of(64, 0);
  node.send(1, std::move(m));
  eng.run();
  const Time copies = 2.0 * (64.0 + 64.0) / calib::kShmCopyBandwidth;  // hdr+payload, both sides
  EXPECT_NEAR(arrival, calib::kShmLatency + copies, 1e-9);
}

TEST(ShmCells, InterleavedSendersDeliverIntactInPerSenderOrder) {
  // Two senders' multi-cell messages interleave in one receive queue; the
  // receiver drains it only after every cell has landed. Cells carry
  // fragment lengths only, so this pins that each message's bytes travel
  // with its first cell and delivery waits for its own fragments alone.
  sim::Engine eng;
  ShmNode node(eng, 3);
  std::vector<Message> delivered;
  node.set_deliver(2, [&](Message&& m) { delivered.push_back(std::move(m)); });
  const std::size_t cell = calib::kNemesisCellPayload;
  // (sender, header tag, payload size): a zero-byte message sits between
  // each sender's multi-cell messages.
  struct Spec {
    int src;
    int tag;
    std::size_t n;
  };
  const std::vector<Spec> specs = {{0, 10, 3 * cell - 5}, {1, 20, 2 * cell + 7},
                                   {0, 11, 0},            {1, 21, 0},
                                   {0, 12, 2 * cell},     {1, 22, 4 * cell + 1}};
  for (const Spec& sp : specs) {
    Message m;
    m.src_local = sp.src;
    m.header.tag = sp.tag;
    m.payload = payload_of(sp.n, sp.tag);
    node.send(2, std::move(m));
  }
  eng.run();
  EXPECT_TRUE(delivered.empty());  // nobody has polled yet
  EXPECT_TRUE(node.poll(2));
  ASSERT_EQ(delivered.size(), specs.size());
  std::vector<std::vector<int>> order(2);
  for (const Message& m : delivered) {
    const int tag = m.header.tag;
    const auto it = std::find_if(specs.begin(), specs.end(),
                                 [tag](const Spec& sp) { return sp.tag == tag; });
    ASSERT_NE(it, specs.end());
    EXPECT_EQ(m.src_local, it->src);
    EXPECT_EQ(m.payload, payload_of(it->n, tag));
    order[static_cast<std::size_t>(m.src_local)].push_back(tag);
  }
  EXPECT_EQ(order[0], (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(order[1], (std::vector<int>{20, 21, 22}));
  EXPECT_EQ(node.cells_in_flight(), 0u);
}

TEST(ShmTiming, ThreeCellMessageMatchesClosedForm) {
  // Three full cells: the sender copies header + three fragments in back to
  // back, and the last cell lands one latency plus its copy-out later.
  sim::Engine eng;
  ShmNode node(eng, 2);
  Time arrival = -1;
  node.set_deliver(1, [&](Message&&) { arrival = eng.now(); });
  node.set_activity_hook(1, [&] { node.poll(1); });
  const double cell = static_cast<double>(calib::kNemesisCellPayload);
  const double header = static_cast<double>(ShmNode::kHeaderBytes);
  Message m;
  m.src_local = 0;
  m.payload = payload_of(3 * calib::kNemesisCellPayload, 0);
  node.send(1, std::move(m));
  eng.run();
  const double bw = calib::kShmCopyBandwidth;
  const Time copy_in = (header + 3.0 * cell) / bw;
  EXPECT_NEAR(arrival, copy_in + calib::kShmLatency + cell / bw, 1e-12);
  EXPECT_EQ(node.mailbox(1), 3u);
}

TEST(ShmTiming, NonPollingReceiverStallsDelivery) {
  sim::Engine eng;
  ShmNode node(eng, 2);
  std::vector<Message> delivered;
  node.set_deliver(1, [&](Message&& m) { delivered.push_back(std::move(m)); });
  // No activity hook: nobody polls.
  Message m;
  m.src_local = 0;
  m.payload = payload_of(100, 0);
  node.send(1, std::move(m));
  eng.run();
  EXPECT_TRUE(delivered.empty());  // cells sit in the receive queue
  EXPECT_TRUE(node.poll(1));
  EXPECT_EQ(delivered.size(), 1u);
}

}  // namespace
}  // namespace nmx::nemesis
