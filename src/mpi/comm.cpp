#include "mpi/comm.hpp"

#include <algorithm>
#include <tuple>

namespace nmx::mpi {

void Comm::csend(const void* buf, std::size_t len, int dst, int tag) {
  Request r = wrap(tx_.isend(global(dst), tag, ctx_base_ + kCollContext, buf, len));
  wait(r);
}

Status Comm::crecv(void* buf, std::size_t cap, int src, int tag) {
  Request r = wrap(tx_.irecv(global(src), tag, ctx_base_ + kCollContext, buf, cap));
  return wait(r);
}

Status Comm::csendrecv(const void* sbuf, std::size_t slen, int dst, int stag, void* rbuf,
                       std::size_t rcap, int src, int rtag) {
  Request rr = wrap(tx_.irecv(global(src), rtag, ctx_base_ + kCollContext, rbuf, rcap));
  Request sr = wrap(tx_.isend(global(dst), stag, ctx_base_ + kCollContext, sbuf, slen));
  wait(sr);
  return wait(rr);
}

Comm Comm::split(int color, int key) {
  // Gather every member's (color, key): an allgather keeps this collective
  // deterministic, then each rank derives its group locally.
  std::vector<std::int64_t> mine{color, key, rank_};
  std::vector<std::int64_t> all(static_cast<std::size_t>(size_) * 3);
  allgather(mine.data(), 3 * sizeof(std::int64_t), all.data());

  struct Member {
    int key, parent_rank;
  };
  std::vector<Member> members;
  for (int p = 0; p < size_; ++p) {
    if (all[static_cast<std::size_t>(p) * 3] == color) {
      members.push_back(Member{static_cast<int>(all[static_cast<std::size_t>(p) * 3 + 1]),
                               static_cast<int>(all[static_cast<std::size_t>(p) * 3 + 2])});
    }
  }
  std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });

  Comm sub(actor_, tx_, eng_, 0, static_cast<int>(members.size()), local_ranks_);
  sub.coll_ = coll_;
  sub.group_.clear();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int world = global(members[i].parent_rank);
    sub.group_.push_back(world);
    if (members[i].parent_rank == rank_) sub.rank_ = static_cast<int>(i);
  }
  sub.index_group();
  // Context allocation: every member executes the same split sequence, so
  // this counter agrees across the group. Distinct colors get distinct
  // blocks so sibling communicators cannot cross-match.
  NMX_ASSERT_MSG(color >= 0, "negative split colors are not supported");
  int max_color = 0;
  for (int p = 0; p < size_; ++p) {
    max_color = std::max(max_color, static_cast<int>(all[static_cast<std::size_t>(p) * 3]));
  }
  sub.ctx_base_ = ctx_base_ + next_split_ctx_ + color * 16;
  NMX_ASSERT_MSG(sub.ctx_base_ + 16 < 0x7ffffff0, "context space exhausted");
  next_split_ctx_ += 16 * (1 + max_color);
  sub.next_split_ctx_ = 16;
  return sub;
}

void Comm::index_group() {
  by_world_.clear();
  if (std::is_sorted(group_.begin(), group_.end())) return;
  by_world_.reserve(group_.size());
  for (std::size_t local = 0; local < group_.size(); ++local) {
    by_world_.emplace_back(group_[local], static_cast<int>(local));
  }
  std::sort(by_world_.begin(), by_world_.end());
}

int Comm::waitany(std::span<Request> reqs, Status* st) {
  // Poll-free: wait on each in turn would serialize; instead register this
  // actor as a waiter on every active request and block until one fires.
  // Request spans are zeroed at completion, so capture them up front: the
  // MpiWait End arg names the request that unblocked the wait.
  std::vector<obs::SpanId> entry_spans(reqs.size(), 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].valid()) entry_spans[i] = reqs[i].req_->span;
  }
  const obs::SpanId sp = span_begin(obs::Cat::MpiWait);
  tx_.enter_progress();
  for (;;) {
    int active = -1;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid()) continue;
      active = static_cast<int>(i);
      if (reqs[i].req_->completed) {
        if (st != nullptr) *st = localized(reqs[i].req_->status);
        tx_.release(reqs[i].req_);
        reqs[i].req_ = nullptr;
        tx_.leave_progress();
        span_end(obs::Cat::MpiWait, sp, 0, static_cast<std::int64_t>(entry_spans[i]));
        return static_cast<int>(i);
      }
    }
    NMX_ASSERT_MSG(active >= 0, "waitany with no active requests");
    for (Request& r : reqs) {
      if (r.valid()) r.req_->waiters.push_back(&actor_);
    }
    actor_.block();
    // Remove ourselves from the requests that did not fire; completed ones
    // cleared their waiter lists already.
    for (Request& r : reqs) {
      if (!r.valid()) continue;
      auto& w = r.req_->waiters;
      w.erase(std::remove(w.begin(), w.end(), &actor_), w.end());
    }
  }
}

void Comm::barrier() {
  trace(obs::Cat::MpiColl, 0, 0);
  if (obs::Recorder* r = rec()) r->metrics().counter("mpi.coll.count").add(1);
  coll::Engine::barrier(*this, coll_);
}

void Comm::bcast(void* buf, std::size_t len, int root) {
  coll::Engine::bcast(*this, buf, len, root, coll_);
}

void Comm::gather(const void* sendbuf, std::size_t block, void* recvbuf, int root) {
  constexpr int kTag = 4000;
  if (rank_ == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(rank_) * block, sendbuf, block);
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(size_ - 1));
    for (int p = 0; p < size_; ++p) {
      if (p == root) continue;
      reqs.push_back(wrap(tx_.irecv(global(p), kTag, ctx_base_ + kCollContext,
                                    out + static_cast<std::size_t>(p) * block, block)));
    }
    waitall(reqs);
  } else {
    csend(sendbuf, block, root, kTag);
  }
}

void Comm::scatter(const void* sendbuf, std::size_t block, void* recvbuf, int root) {
  constexpr int kTag = 5000;
  if (rank_ == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(size_ - 1));
    for (int p = 0; p < size_; ++p) {
      if (p == root) continue;
      reqs.push_back(wrap(tx_.isend(global(p), kTag, ctx_base_ + kCollContext,
                                    in + static_cast<std::size_t>(p) * block, block)));
    }
    std::memcpy(recvbuf, in + static_cast<std::size_t>(rank_) * block, block);
    waitall(reqs);
  } else {
    crecv(recvbuf, block, root, kTag);
  }
}

void Comm::allgather(const void* sendbuf, std::size_t block, void* recvbuf) {
  // Ring: P-1 steps, each forwarding the block received in the previous one.
  // Tags wrap modulo 16 (same scheme as alltoallv): the blocking per-step
  // exchange keeps each (pair, tag) stream FIFO, while a distinct tag per
  // step would leave O(P) per-(peer, tag) matching entries alive at every
  // rank — hundreds of MB of dead matching state at 512 ranks.
  constexpr int kTag = 6000;
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(rank_) * block, sendbuf, block);
  const int right = (rank_ + 1) % size_;
  const int left = (rank_ - 1 + size_) % size_;
  int cur = rank_;
  for (int step = 0; step < size_ - 1; ++step) {
    const int incoming = (cur - 1 + size_) % size_;
    csendrecv(out + static_cast<std::size_t>(cur) * block, block, right, kTag + (step & 15),
              out + static_cast<std::size_t>(incoming) * block, block, left, kTag + (step & 15));
    cur = incoming;
  }
}

void Comm::alltoall(const void* sendbuf, std::size_t block, void* recvbuf) {
  coll::Engine::alltoall(*this, sendbuf, block, recvbuf, coll_);
}

void Comm::alltoallv(const void* sendbuf, const std::size_t* sendcounts,
                     const std::size_t* senddispls, void* recvbuf,
                     const std::size_t* recvcounts, const std::size_t* recvdispls) {
  constexpr int kTag = 7500;
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + recvdispls[rank_], in + senddispls[rank_], sendcounts[rank_]);
  for (int k = 1; k < size_; ++k) {
    const int dst = (rank_ + k) % size_;
    const int src = (rank_ - k + size_) % size_;
    csendrecv(in + senddispls[dst], sendcounts[dst], dst, kTag + (k & 15),
              out + recvdispls[src], recvcounts[src], src, kTag + (k & 15));
  }
}

}  // namespace nmx::mpi
