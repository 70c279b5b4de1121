#include "coll/coll.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "common/assert.hpp"
#include "mpi/comm.hpp"
#include "obs/recorder.hpp"

namespace nmx::coll {

namespace {

// Collective-engine tags live above every legacy collective tag (<= 8502).
// Distinct ops use distinct blocks; within an op, blocking rounds are
// disambiguated by source rank, so small tag windows suffice.
constexpr int kTagBarrier = 9000;      // + round (dissemination)
constexpr int kTagBarrierUp = 9040;    // tree gather
constexpr int kTagBarrierDown = 9041;  // tree release
constexpr int kTagBarrierRing0 = 9050; // token pass 1
constexpr int kTagBarrierRing1 = 9051; // token pass 2 (release)
constexpr int kTagBcast = 9100;        // binomial / k-ary tree
constexpr int kTagBcastRing = 9150;    // + (chunk & 15)
constexpr int kTagBcastScatter = 9180;
constexpr int kTagBcastAg = 9250;      // + (step & 15)
constexpr int kTagReduce = 9200;       // tree reduce (allreduce up-phase)
constexpr int kTagRd = 9300;           // .. 9302 (recursive doubling)
constexpr int kTagRs = 9400;           // + (step & 15) (ring reduce-scatter)
constexpr int kTagRag = 9450;          // + (step & 15) (ring allgather)
constexpr int kTagA2aPair = 9500;      // + (round & 15)
constexpr int kTagA2aBruck = 9550;
constexpr int kTagA2aXor = 9560;
constexpr int kTagA2aWin = 9580;       // + (round & 15)

const char* const kOpName[] = {"barrier", "bcast", "allreduce", "alltoall"};

/// Uninitialised receive scratch of `n` bytes: inline up to 1 KiB (a CG row
/// segment, a scalar), else one heap block. It lives on the calling actor's
/// stack, because two actors of one rank may be inside collectives at once.
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    if (n > sizeof small_) big_ = std::make_unique_for_overwrite<std::byte[]>(n);
  }
  std::byte* data() { return big_ ? big_.get() : small_; }

 private:
  alignas(std::max_align_t) std::byte small_[1024];
  std::unique_ptr<std::byte[]> big_;
};

}  // namespace

const char* to_string(Algo a) {
  switch (a) {
    case Algo::Auto: return "auto";
    case Algo::Binomial: return "binomial";
    case Algo::Kary: return "kary";
    case Algo::Ring: return "ring";
    case Algo::RecDoubling: return "recdbl";
    case Algo::NicOffload: return "nic";
  }
  return "?";
}

Algo parse_algo(const std::string& s) {
  if (s == "binomial") return Algo::Binomial;
  if (s == "kary") return Algo::Kary;
  if (s == "ring") return Algo::Ring;
  if (s == "recdbl") return Algo::RecDoubling;
  if (s == "nic") return Algo::NicOffload;
  return Algo::Auto;
}

void Config::apply_env() {
  if (const char* v = std::getenv("NMX_COLL_ALGO")) {
    const Algo a = parse_algo(v);
    barrier = bcast = allreduce = alltoall = a;
  }
  if (const char* v = std::getenv("NMX_COLL_BARRIER")) barrier = parse_algo(v);
  if (const char* v = std::getenv("NMX_COLL_BCAST")) bcast = parse_algo(v);
  if (const char* v = std::getenv("NMX_COLL_ALLREDUCE")) allreduce = parse_algo(v);
  if (const char* v = std::getenv("NMX_COLL_ALLTOALL")) alltoall = parse_algo(v);
  if (const char* v = std::getenv("NMX_COLL_KARY")) kary = std::max(2, std::atoi(v));
}

// ---------------------------------------------------------------------------
// plumbing
// ---------------------------------------------------------------------------

int Engine::ctx(const mpi::Comm& c) { return c.ctx_base_ + mpi::Comm::kCollContext; }

mpi::TxRequest* Engine::post_send(mpi::Comm& c, int dst, int tag, const void* buf,
                                  std::size_t len) {
  return c.tx_.isend(c.global(dst), tag, ctx(c), buf, len);
}

mpi::TxRequest* Engine::post_recv(mpi::Comm& c, int src, int tag, void* buf, std::size_t cap) {
  return c.tx_.irecv(c.global(src), tag, ctx(c), buf, cap);
}

void Engine::wait(mpi::Comm& c, mpi::TxRequest* r) {
  // Same bookkeeping as Comm::wait: the MpiWait End arg names the span the
  // wait resolved on (a critical-path edge).
  const obs::SpanId waited = r->span;
  const obs::SpanId sp = c.span_begin(obs::Cat::MpiWait);
  c.tx_.wait(c.actor_, r);
  c.span_end(obs::Cat::MpiWait, sp, 0, static_cast<std::int64_t>(waited));
  c.tx_.release(r);
}

void Engine::send(mpi::Comm& c, const void* buf, std::size_t len, int dst, int tag) {
  wait(c, post_send(c, dst, tag, buf, len));
}

void Engine::recv(mpi::Comm& c, void* buf, std::size_t cap, int src, int tag) {
  wait(c, post_recv(c, src, tag, buf, cap));
}

void Engine::sendrecv(mpi::Comm& c, const void* sbuf, std::size_t slen, int dst, int stag,
                      void* rbuf, std::size_t rcap, int src, int rtag) {
  mpi::TxRequest* rr = post_recv(c, src, rtag, rbuf, rcap);
  mpi::TxRequest* sr = post_send(c, dst, stag, sbuf, slen);
  wait(c, sr);
  wait(c, rr);
}

std::uint64_t Engine::phase_begin(mpi::Comm& c, int op_id, Algo algo, std::size_t bytes) {
  if (obs::Recorder* r = c.rec()) {
    const std::string label = std::string("op=") + kOpName[op_id];
    r->metrics().counter("nmad.coll.count", label).add(1);
    if (bytes != 0) r->metrics().counter("nmad.coll.bytes", label).add(bytes);
  }
  return c.span_begin(obs::Cat::Coll, bytes,
                      (static_cast<std::int64_t>(op_id) << 8) |
                          static_cast<std::int64_t>(algo));
}

void Engine::phase_end(mpi::Comm& c, std::uint64_t sp, std::size_t bytes) {
  c.span_end(obs::Cat::Coll, sp, bytes);
}

Engine::TreeEdges Engine::tree_edges(int vr, int size, int arity) {
  TreeEdges e{-1, 0, vr, arity};
  if (arity <= 0) {
    // Binomial: parent clears vr's lowest set bit; children are vr + 2^i.
    int lowbit = vr == 0 ? 1 : (vr & -vr);
    if (vr == 0) {
      while (lowbit < size) lowbit <<= 1;
    }
    for (int m = 1; m < lowbit && vr + m < size; m <<= 1) ++e.children;
    if (vr != 0) e.parent = vr - lowbit;
    return e;
  }
  e.children = std::clamp(size - (vr * arity + 1), 0, arity);
  if (vr != 0) e.parent = (vr - 1) / arity;
  return e;
}

bool Engine::nic_combine_tree(mpi::Comm& c, double* value, int op, int root) {
  // All ranks of a communicator execute the same collective sequence, so the
  // counter agrees group-wide; the context block keeps sibling communicators
  // from colliding inside the NIC unit's id space.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx(c))) << 32) | c.next_coll_id_++;
  const int vr = (c.rank_ - root + c.size_) % c.size_;
  const TreeEdges t = tree_edges(vr, c.size_, 0);
  std::vector<int> world_kids;
  world_kids.reserve(static_cast<std::size_t>(t.children));
  for (int i = 0; i < t.children; ++i) {
    world_kids.push_back(c.global((t.child(i) + root) % c.size_));
  }
  const int world_parent = t.parent >= 0 ? c.global((t.parent + root) % c.size_) : -1;
  mpi::TxRequest* r = c.tx_.nic_coll(id, world_parent, world_kids, op, value);
  if (r == nullptr) return false;  // no NIC unit on this stack: host fallback
  wait(c, r);
  return true;
}

// ---------------------------------------------------------------------------
// barrier
// ---------------------------------------------------------------------------

void Engine::barrier(mpi::Comm& c, const Config& cfg) {
  if (c.size_ == 1) return;
  const Algo a = resolve_barrier(cfg.barrier);
  const std::uint64_t sp = phase_begin(c, 0, a, 0);
  switch (a) {
    case Algo::NicOffload: {
      double v = 0;
      if (!nic_combine_tree(c, &v, /*op=*/0, /*root=*/0)) barrier_dissemination(c);
      break;
    }
    case Algo::Binomial: barrier_tree(c, 0); break;
    case Algo::Kary: barrier_tree(c, std::max(2, cfg.kary)); break;
    case Algo::Ring: barrier_ring(c); break;
    default: barrier_dissemination(c); break;
  }
  phase_end(c, sp, 0);
}

void Engine::barrier_dissemination(mpi::Comm& c) {
  int round = 0;
  for (int k = 1; k < c.size_; k <<= 1, ++round) {
    const int dst = (c.rank_ + k) % c.size_;
    const int src = (c.rank_ - k + c.size_) % c.size_;
    sendrecv(c, nullptr, 0, dst, kTagBarrier + round, nullptr, 0, src, kTagBarrier + round);
  }
}

void Engine::barrier_tree(mpi::Comm& c, int arity) {
  const TreeEdges t = tree_edges(c.rank_, c.size_, arity);
  for (int i = 0; i < t.children; ++i) recv(c, nullptr, 0, t.child(i), kTagBarrierUp);
  if (t.parent >= 0) {
    send(c, nullptr, 0, t.parent, kTagBarrierUp);
    recv(c, nullptr, 0, t.parent, kTagBarrierDown);
  }
  for (int i = 0; i < t.children; ++i) send(c, nullptr, 0, t.child(i), kTagBarrierDown);
}

void Engine::barrier_ring(mpi::Comm& c) {
  // Two token circuits: the first proves every rank entered, the second
  // releases them.
  const int right = (c.rank_ + 1) % c.size_;
  const int left = (c.rank_ - 1 + c.size_) % c.size_;
  if (c.rank_ == 0) {
    send(c, nullptr, 0, right, kTagBarrierRing0);
    recv(c, nullptr, 0, left, kTagBarrierRing0);
    send(c, nullptr, 0, right, kTagBarrierRing1);
    recv(c, nullptr, 0, left, kTagBarrierRing1);
  } else {
    recv(c, nullptr, 0, left, kTagBarrierRing0);
    send(c, nullptr, 0, right, kTagBarrierRing0);
    recv(c, nullptr, 0, left, kTagBarrierRing1);
    send(c, nullptr, 0, right, kTagBarrierRing1);
  }
}

// ---------------------------------------------------------------------------
// bcast
// ---------------------------------------------------------------------------

void Engine::bcast(mpi::Comm& c, void* buf, std::size_t len, int root, const Config& cfg) {
  if (c.size_ == 1) return;
  Algo a = resolve_bcast(cfg.bcast);
  // The NIC unit broadcasts exactly one double; the ring pipeline degenerates
  // on empty payloads. Everything else falls back to the binomial tree.
  if (a == Algo::NicOffload && len != sizeof(double)) a = Algo::Binomial;
  if ((a == Algo::Ring || a == Algo::RecDoubling) && len == 0) a = Algo::Binomial;
  const std::uint64_t sp = phase_begin(c, 1, a, len);
  switch (a) {
    case Algo::NicOffload: {
      double v = 0;
      std::memcpy(&v, buf, sizeof v);
      if (nic_combine_tree(c, &v, /*op=*/4, root)) {
        std::memcpy(buf, &v, sizeof v);
      } else {
        bcast_tree(c, buf, len, root, 0);
      }
      break;
    }
    case Algo::Kary: bcast_tree(c, buf, len, root, std::max(2, cfg.kary)); break;
    case Algo::Ring: bcast_ring(c, buf, len, root, cfg.ring_chunk); break;
    case Algo::RecDoubling: bcast_scatter_allgather(c, buf, len, root); break;
    default: bcast_tree(c, buf, len, root, 0); break;
  }
  phase_end(c, sp, len);
}

void Engine::bcast_tree(mpi::Comm& c, void* buf, std::size_t len, int root, int arity) {
  const int vr = (c.rank_ - root + c.size_) % c.size_;
  const TreeEdges t = tree_edges(vr, c.size_, arity);
  if (t.parent >= 0) recv(c, buf, len, (t.parent + root) % c.size_, kTagBcast);
  // Largest subtree first (binomial kids ascend, so iterate in reverse): the
  // deep branches start flowing before the leaves.
  for (int i = t.children; i-- > 0;) send(c, buf, len, (t.child(i) + root) % c.size_, kTagBcast);
}

void Engine::bcast_ring(mpi::Comm& c, void* buf, std::size_t len, int root, std::size_t chunk) {
  const int vr = (c.rank_ - root + c.size_) % c.size_;
  const int prev = vr > 0 ? (vr - 1 + root) % c.size_ : -1;
  const int next = vr + 1 < c.size_ ? (vr + 1 + root) % c.size_ : -1;
  chunk = std::max<std::size_t>(chunk, 1);
  auto* p = static_cast<std::byte*>(buf);
  std::deque<mpi::TxRequest*> inflight;
  for (std::size_t off = 0, i = 0; off < len; off += chunk, ++i) {
    const std::size_t n = std::min(chunk, len - off);
    const int tag = kTagBcastRing + static_cast<int>(i & 15);
    if (prev >= 0) recv(c, p + off, n, prev, tag);
    if (next >= 0) {
      inflight.push_back(post_send(c, next, tag, p + off, n));
      // Window of two outstanding chunks keeps the pipe full without
      // unbounded posted sends.
      while (inflight.size() > 2) {
        wait(c, inflight.front());
        inflight.pop_front();
      }
    }
  }
  while (!inflight.empty()) {
    wait(c, inflight.front());
    inflight.pop_front();
  }
}

void Engine::bcast_scatter_allgather(mpi::Comm& c, void* buf, std::size_t len, int root) {
  // van de Geijn long-message bcast: binomial scatter of P byte-blocks, then
  // a ring allgather — bandwidth-optimal at the cost of P-1 latency steps.
  const int P = c.size_;
  const int vr = (c.rank_ - root + P) % P;
  auto* p = static_cast<std::byte*>(buf);
  const std::size_t base = len / static_cast<std::size_t>(P);
  const std::size_t rem = len % static_cast<std::size_t>(P);
  const auto bsz = [&](int b) {
    return base + (static_cast<std::size_t>(b) < rem ? 1 : 0);
  };
  const auto boff = [&](int b) {
    return static_cast<std::size_t>(b) * base + std::min(static_cast<std::size_t>(b), rem);
  };

  // Scatter: vr's subtree owns blocks [vr, vr + lowbit(vr)).
  int lowbit = vr == 0 ? 1 : (vr & -vr);
  if (vr == 0) {
    while (lowbit < P) lowbit <<= 1;
  } else {
    const int hi = std::min(vr + lowbit, P);
    recv(c, p + boff(vr), boff(hi) - boff(vr), ((vr - lowbit) + root) % P, kTagBcastScatter);
  }
  for (int m = lowbit >> 1; m >= 1; m >>= 1) {
    if (vr + m < P) {
      const int hi = std::min(vr + 2 * m, P);
      send(c, p + boff(vr + m), boff(hi) - boff(vr + m), (vr + m + root) % P, kTagBcastScatter);
    }
  }

  // Ring allgather over the virtual-rank ring.
  const int right = (vr + 1) % P;
  const int left = (vr - 1 + P) % P;
  int cur = vr;
  for (int step = 0; step < P - 1; ++step) {
    const int incoming = (cur - 1 + P) % P;
    const int tag = kTagBcastAg + (step & 15);
    sendrecv(c, p + boff(cur), bsz(cur), (right + root) % P, tag, p + boff(incoming),
             bsz(incoming), (left + root) % P, tag);
    cur = incoming;
  }
}

// ---------------------------------------------------------------------------
// allreduce
// ---------------------------------------------------------------------------

void Engine::allreduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                       const ReduceFn& fold, int nic_op, const Config& cfg) {
  if (c.size_ == 1) return;
  const std::size_t bytes = elem * count;
  Algo a = resolve_allreduce(cfg.allreduce);
  if (a == Algo::NicOffload && !(nic_op >= 0 && count == 1 && elem == sizeof(double))) {
    a = Algo::Binomial;  // the NIC unit combines exactly one double
  }
  const std::uint64_t sp = phase_begin(c, 2, a, bytes);
  switch (a) {
    case Algo::NicOffload: {
      double v = 0;
      std::memcpy(&v, data, sizeof v);
      if (nic_combine_tree(c, &v, nic_op, /*root=*/0)) {
        std::memcpy(data, &v, sizeof v);
      } else {
        reduce_tree(c, data, elem, count, fold, 0);
        bcast_tree(c, data, bytes, 0, 0);
      }
      break;
    }
    case Algo::Kary: {
      const int arity = std::max(2, cfg.kary);
      reduce_tree(c, data, elem, count, fold, arity);
      bcast_tree(c, data, bytes, 0, arity);
      break;
    }
    case Algo::RecDoubling: allreduce_rd_impl(c, data, elem, count, fold); break;
    case Algo::Ring: allreduce_ring(c, data, elem, count, fold); break;
    default:
      reduce_tree(c, data, elem, count, fold, 0);
      bcast_tree(c, data, bytes, 0, 0);
      break;
  }
  phase_end(c, sp, bytes);
}

void Engine::reduce_tree(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                         const ReduceFn& fold, int arity) {
  const TreeEdges t = tree_edges(c.rank_, c.size_, arity);
  const std::size_t bytes = elem * count;
  if (t.children > 0) {
    Scratch tmp(bytes);
    for (int i = 0; i < t.children; ++i) {
      recv(c, tmp.data(), bytes, t.child(i), kTagReduce);
      fold(data, tmp.data(), count);
    }
  }
  if (t.parent >= 0) send(c, data, bytes, t.parent, kTagReduce);
}

void Engine::allreduce_rd_impl(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                               const ReduceFn& fold) {
  // Recursive doubling with the MPICH non-power-of-two fold: excess ranks
  // contribute to a partner, sit out the doubling, and get the result after.
  const std::size_t bytes = elem * count;
  auto* acc = static_cast<std::byte*>(data);
  Scratch tmp(bytes);

  int pof2 = 1;
  while (pof2 * 2 <= c.size_) pof2 *= 2;
  const int rem = c.size_ - pof2;

  int newrank;
  if (c.rank_ < 2 * rem) {
    if (c.rank_ % 2 == 0) {
      send(c, acc, bytes, c.rank_ + 1, kTagRd);
      newrank = -1;
    } else {
      recv(c, tmp.data(), bytes, c.rank_ - 1, kTagRd);
      fold(acc, tmp.data(), count);
      newrank = c.rank_ / 2;
    }
  } else {
    newrank = c.rank_ - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newdst = newrank ^ mask;
      const int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      sendrecv(c, acc, bytes, dst, kTagRd + 1, tmp.data(), bytes, dst, kTagRd + 1);
      fold(acc, tmp.data(), count);
    }
  }

  if (c.rank_ < 2 * rem) {
    if (c.rank_ % 2 == 0) {
      recv(c, acc, bytes, c.rank_ + 1, kTagRd + 2);
    } else {
      send(c, acc, bytes, c.rank_ - 1, kTagRd + 2);
    }
  }
}

void Engine::allreduce_ring(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                            const ReduceFn& fold) {
  // Ring reduce-scatter then ring allgather over P element-blocks: each of
  // the 2(P-1) steps moves ~count/P elements, so every rank sends the
  // bandwidth-optimal 2*count*(P-1)/P elements total.
  const int P = c.size_;
  auto* p = static_cast<std::byte*>(data);
  const std::size_t base = count / static_cast<std::size_t>(P);
  const std::size_t rem = count % static_cast<std::size_t>(P);
  const auto bsz = [&](int b) {
    return base + (static_cast<std::size_t>(b) < rem ? 1 : 0);
  };
  const auto boff = [&](int b) {
    return static_cast<std::size_t>(b) * base + std::min(static_cast<std::size_t>(b), rem);
  };
  std::vector<std::byte> tmp((base + (rem != 0 ? 1 : 0)) * elem);
  const int right = (c.rank_ + 1) % P;
  const int left = (c.rank_ - 1 + P) % P;

  for (int s = 0; s < P - 1; ++s) {
    const int sb = (c.rank_ - s + P) % P;
    const int rb = (c.rank_ - s - 1 + 2 * P) % P;
    const int tag = kTagRs + (s & 15);
    sendrecv(c, p + boff(sb) * elem, bsz(sb) * elem, right, tag, tmp.data(), bsz(rb) * elem,
             left, tag);
    fold(p + boff(rb) * elem, tmp.data(), bsz(rb));
  }
  // Rank r now owns the fully reduced block (r+1) mod P; circulate it.
  for (int s = 0; s < P - 1; ++s) {
    const int sb = (c.rank_ + 1 - s + 2 * P) % P;
    const int rb = (c.rank_ - s + 2 * P) % P;
    const int tag = kTagRag + (s & 15);
    sendrecv(c, p + boff(sb) * elem, bsz(sb) * elem, right, tag, p + boff(rb) * elem,
             bsz(rb) * elem, left, tag);
  }
}

// ---------------------------------------------------------------------------
// alltoall
// ---------------------------------------------------------------------------

void Engine::alltoall(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                      const Config& cfg) {
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(c.rank_) * block,
              in + static_cast<std::size_t>(c.rank_) * block, block);
  if (c.size_ == 1) return;
  Algo a = resolve_alltoall(cfg.alltoall);
  if (a == Algo::NicOffload) a = Algo::Ring;  // no NIC path for alltoall
  if (a == Algo::RecDoubling && (c.size_ & (c.size_ - 1)) != 0) a = Algo::Ring;
  const std::uint64_t sp = phase_begin(c, 3, a, block * static_cast<std::size_t>(c.size_));
  switch (a) {
    case Algo::Binomial: alltoall_bruck(c, in, block, out); break;
    case Algo::RecDoubling: alltoall_xor(c, in, block, out); break;
    case Algo::Kary: alltoall_windowed(c, in, block, out, std::max(2, cfg.kary)); break;
    default: alltoall_pairwise(c, in, block, out); break;
  }
  phase_end(c, sp, block * static_cast<std::size_t>(c.size_));
}

void Engine::alltoall_pairwise(mpi::Comm& c, const std::byte* in, std::size_t block,
                               std::byte* out) {
  for (int k = 1; k < c.size_; ++k) {
    const int dst = (c.rank_ + k) % c.size_;
    const int src = (c.rank_ - k + c.size_) % c.size_;
    const int tag = kTagA2aPair + (k & 15);
    sendrecv(c, in + static_cast<std::size_t>(dst) * block, block, dst, tag,
             out + static_cast<std::size_t>(src) * block, block, src, tag);
  }
}

void Engine::alltoall_bruck(mpi::Comm& c, const std::byte* in, std::size_t block,
                            std::byte* out) {
  // Bruck: ceil(log2 P) rounds of bundled blocks — latency-optimal for small
  // blocks at the cost of local copies and log-factor extra bytes.
  const int P = c.size_;
  const int r = c.rank_;
  std::vector<std::byte> tmp(static_cast<std::size_t>(P) * block);
  const std::size_t half = (static_cast<std::size_t>(P) + 1) / 2;
  std::vector<std::byte> pack(half * block);
  std::vector<std::byte> rbuf(half * block);

  for (int i = 0; i < P; ++i) {
    std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block,
                in + static_cast<std::size_t>((r + i) % P) * block, block);
  }
  for (int mask = 1; mask < P; mask <<= 1) {
    std::size_t n = 0;
    for (int i = 0; i < P; ++i) {
      if ((i & mask) != 0) {
        std::memcpy(pack.data() + n * block, tmp.data() + static_cast<std::size_t>(i) * block,
                    block);
        ++n;
      }
    }
    const int dst = (r + mask) % P;
    const int src = (r - mask + P) % P;
    sendrecv(c, pack.data(), n * block, dst, kTagA2aBruck, rbuf.data(), n * block, src,
             kTagA2aBruck);
    n = 0;
    for (int i = 0; i < P; ++i) {
      if ((i & mask) != 0) {
        std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block, rbuf.data() + n * block,
                    block);
        ++n;
      }
    }
  }
  for (int i = 0; i < P; ++i) {
    std::memcpy(out + static_cast<std::size_t>((r - i + P) % P) * block,
                tmp.data() + static_cast<std::size_t>(i) * block, block);
  }
}

void Engine::alltoall_xor(mpi::Comm& c, const std::byte* in, std::size_t block,
                          std::byte* out) {
  // XOR pairwise exchange: power-of-two only; every round is a perfect
  // matching, so no rank ever waits on a busy partner.
  for (int k = 1; k < c.size_; ++k) {
    const int peer = c.rank_ ^ k;
    sendrecv(c, in + static_cast<std::size_t>(peer) * block, block, peer, kTagA2aXor,
             out + static_cast<std::size_t>(peer) * block, block, peer, kTagA2aXor);
  }
}

void Engine::alltoall_windowed(mpi::Comm& c, const std::byte* in, std::size_t block,
                               std::byte* out, int window) {
  // Nonblocking batches of `window` peers: receives posted first so eager
  // arrivals match instead of queueing unexpected.
  const int P = c.size_;
  std::vector<mpi::TxRequest*> reqs;
  for (int lo = 1; lo < P; lo += window) {
    const int hi = std::min(lo + window, P);
    reqs.clear();
    for (int k = lo; k < hi; ++k) {
      const int src = (c.rank_ - k + P) % P;
      reqs.push_back(
          post_recv(c, src, kTagA2aWin + (k & 15), out + static_cast<std::size_t>(src) * block,
                    block));
    }
    for (int k = lo; k < hi; ++k) {
      const int dst = (c.rank_ + k) % P;
      reqs.push_back(
          post_send(c, dst, kTagA2aWin + (k & 15), in + static_cast<std::size_t>(dst) * block,
                    block));
    }
    for (mpi::TxRequest* q : reqs) wait(c, q);
  }
}

}  // namespace nmx::coll
