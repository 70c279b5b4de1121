// The public MPI-like API. One Comm per rank, usable only from that rank's
// simulated actor. All stacks (MPICH2-NewMadeleine and the baselines) sit
// behind the same Transport interface, so application code — examples, the
// NAS kernels, the netpipe harness — is identical across stacks, as in the
// paper's evaluation.
#pragma once

#include <cstddef>
#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "common/assert.hpp"
#include "mpi/datatype.hpp"
#include "mpi/transport.hpp"
#include "net/calibration.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace nmx::mpi {

/// User-visible request handle (MPI_Request).
class Request {
 public:
  Request() = default;
  bool valid() const { return req_ != nullptr; }

 private:
  friend class Comm;
  TxRequest* req_ = nullptr;
};

enum class ReduceOp { Sum, Prod, Min, Max };

class Comm {
 public:
  Comm(sim::Actor& actor, Transport& tx, sim::Engine& eng, int rank, int size,
       int local_ranks = 1)
      : actor_(actor), tx_(tx), eng_(eng), rank_(rank), size_(size), local_ranks_(local_ranks) {}

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// MPI_Comm_split: collective; ranks supplying the same `color` form a
  /// new communicator, ordered by `key` (ties by parent rank). Each new
  /// communicator gets its own context block, so its traffic — including
  /// MPI_ANY_SOURCE — cannot match the parent's or a sibling's. Must be
  /// called by all members of this communicator in the same program order.
  Comm split(int color, int key);
  /// Number of ranks placed on this rank's node (for shared-resource
  /// contention models: memory bandwidth, NIC sharing).
  int local_ranks() const { return local_ranks_; }

  // --- point-to-point -----------------------------------------------------

  Request isend(const void* buf, std::size_t len, int dst, int tag) {
    trace(obs::Cat::MpiSend, len, dst);
    if (obs::Recorder* r = rec()) {
      r->metrics().counter("mpi.send.count").add(1);
      r->metrics().counter("mpi.send.bytes").add(len);
    }
    return wrap(tx_.isend(global(dst), tag, ctx_base_ + kUserContext, buf, len));
  }
  Request irecv(void* buf, std::size_t cap, int src, int tag) {
    trace(obs::Cat::MpiRecv, cap, src);
    if (obs::Recorder* r = rec()) r->metrics().counter("mpi.recv.count").add(1);
    return wrap(tx_.irecv(global_or_any(src), tag, ctx_base_ + kUserContext, buf, cap));
  }
  void send(const void* buf, std::size_t len, int dst, int tag) {
    Request r = isend(buf, len, dst, tag);
    wait(r);
  }
  Status recv(void* buf, std::size_t cap, int src, int tag) {
    Request r = irecv(buf, cap, src, tag);
    return wait(r);
  }

  Status wait(Request& r) {
    NMX_ASSERT_MSG(r.valid(), "wait on an inactive request");
    // Capture the waited request's span before completion zeroes it: the
    // MpiWait End arg names what the wait was blocked on (critpath edge).
    const obs::SpanId waited = r.req_->span;
    const obs::SpanId sp = span_begin(obs::Cat::MpiWait);
    tx_.wait(actor_, r.req_);
    span_end(obs::Cat::MpiWait, sp, 0, static_cast<std::int64_t>(waited));
    const Status st = localized(r.req_->status);
    tx_.release(r.req_);
    r.req_ = nullptr;
    return st;
  }

  /// Block until one of `reqs` completes; returns its index and frees it
  /// (MPI_Waitany). At least one request must be active.
  int waitany(std::span<Request> reqs, Status* st = nullptr);

  void waitall(std::span<Request> reqs) {
    for (Request& r : reqs) {
      if (r.valid()) wait(r);
    }
  }

  /// Non-blocking completion check; fills `st` on success and frees the
  /// request (one progress poke per call, like MPI_Test).
  bool test(Request& r, Status* st = nullptr) {
    NMX_ASSERT_MSG(r.valid(), "test on an inactive request");
    if (!tx_.test(r.req_)) return false;
    if (st != nullptr) *st = localized(r.req_->status);
    tx_.release(r.req_);
    r.req_ = nullptr;
    return true;
  }

  Status sendrecv(const void* sbuf, std::size_t slen, int dst, int stag, void* rbuf,
                  std::size_t rcap, int src, int rtag) {
    Request rr = irecv(rbuf, rcap, src, rtag);
    Request sr = isend(sbuf, slen, dst, stag);
    wait(sr);
    return wait(rr);
  }

  /// Non-destructive check for a matching incoming message (MPI_Iprobe);
  /// `src` / `tag` may be wildcards. Charges one progress-engine poll pass
  /// (handling the already-arrived packets is what the pass pays for).
  std::optional<Status> iprobe(int src, int tag) {
    if (auto st = tx_.iprobe(global_or_any(src), tag, ctx_base_ + kUserContext)) {
      return localized(*st);
    }
    actor_.sleep_for(1.0_us);  // let the drained packets finish handling
    if (auto st = tx_.iprobe(global_or_any(src), tag, ctx_base_ + kUserContext)) {
      return localized(*st);
    }
    return std::nullopt;
  }

  // --- derived datatypes (§5 future work — see mpi/datatype.hpp) -----------

  /// Send the layout `dt` rooted at `base`. Stacks without native segment
  /// support pack through a bounce buffer and pay the gather copy.
  void send(const void* base, const Datatype& dt, int dst, int tag) {
    if (dt.contiguous_layout()) {
      const auto& segs = dt.segments();
      send(segs.empty() ? base : static_cast<const std::byte*>(base) + segs[0].offset,
           dt.packed_size(), dst, tag);
      return;
    }
    std::vector<std::byte> packed(dt.packed_size());
    dt.pack(base, packed.data());
    if (!tx_.native_datatypes()) actor_.sleep_for(calib::copy_cost(packed.size()));
    send(packed.data(), packed.size(), dst, tag);
  }

  /// Receive into the layout `dt` rooted at `base`.
  Status recv(void* base, const Datatype& dt, int src, int tag) {
    if (dt.contiguous_layout()) {
      const auto& segs = dt.segments();
      return recv(segs.empty() ? base : static_cast<std::byte*>(base) + segs[0].offset,
                  dt.packed_size(), src, tag);
    }
    std::vector<std::byte> packed(dt.packed_size());
    Status st = recv(packed.data(), packed.size(), src, tag);
    if (!tx_.native_datatypes()) actor_.sleep_for(calib::copy_cost(packed.size()));
    dt.unpack(packed.data(), base);
    return st;
  }

  // --- typed convenience ----------------------------------------------------

  template <class T>
  void send(std::span<const T> data, int dst, int tag) {
    send(data.data(), data.size_bytes(), dst, tag);
  }
  template <class T>
  Status recv(std::span<T> data, int src, int tag) {
    return recv(data.data(), data.size_bytes(), src, tag);
  }
  template <class T>
  void send_value(const T& v, int dst, int tag) {
    send(&v, sizeof(T), dst, tag);
  }
  template <class T>
  T recv_value(int src, int tag) {
    T v{};
    recv(&v, sizeof(T), src, tag);
    return v;
  }

  // --- collectives ----------------------------------------------------------
  // Implemented by the coll::Engine (src/coll): per-op algorithms are
  // selected by the coll::Config knob (ClusterConfig::coll + NMX_COLL_* env),
  // and every host-tree edge routes through the transport — rail choice and
  // rendezvous chunking stay with the NewMadeleine cost model.

  /// Install the collective algorithm configuration (Cluster does this from
  /// ClusterConfig::coll; split children inherit it).
  void set_coll_config(const coll::Config& cfg) { coll_ = cfg; }
  const coll::Config& coll_config() const { return coll_; }

  void barrier();
  void bcast(void* buf, std::size_t len, int root);
  /// `block` bytes contributed per rank; recvbuf holds size()*block at root.
  void gather(const void* sendbuf, std::size_t block, void* recvbuf, int root);
  void scatter(const void* sendbuf, std::size_t block, void* recvbuf, int root);
  void allgather(const void* sendbuf, std::size_t block, void* recvbuf);
  void alltoall(const void* sendbuf, std::size_t block, void* recvbuf);
  /// Variable-size all-to-all (MPI_Alltoallv, byte counts/displacements) —
  /// what the IS kernel needs.
  void alltoallv(const void* sendbuf, const std::size_t* sendcounts,
                 const std::size_t* senddispls, void* recvbuf, const std::size_t* recvcounts,
                 const std::size_t* recvdispls);
  /// Inclusive prefix reduction (MPI_Scan).
  template <class T>
  void scan(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op);
  /// Reduce + scatter of equal blocks (MPI_Reduce_scatter_block).
  template <class T>
  void reduce_scatter_block(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op);

  template <class T>
  void reduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op, int root);
  /// Binomial reduce + binomial broadcast (bandwidth-friendly; the default).
  template <class T>
  void allreduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op);
  /// Recursive-doubling allreduce: log2(P) rounds of pairwise exchange —
  /// half the latency of reduce+bcast for small payloads, at the cost of
  /// sending the full vector every round. Non-power-of-two counts fold the
  /// excess ranks in and out (the MPICH algorithm). See bench/abl_allreduce.
  template <class T>
  void allreduce_rd(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op);
  template <class T>
  T allreduce_one(T value, ReduceOp op) {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }

  // --- time -----------------------------------------------------------------

  /// Virtual wall-clock seconds (MPI_Wtime).
  double wtime() const { return eng_.now(); }
  /// Model `seconds` of application computation (advances virtual time;
  /// dilated by stacks whose progression machinery steals cycles).
  void compute(double seconds) {
    const obs::SpanId sp =
        span_begin(obs::Cat::Compute, static_cast<std::size_t>(seconds * 1e9));
    actor_.sleep_for(seconds * tx_.compute_dilation());
    span_end(obs::Cat::Compute, sp, static_cast<std::size_t>(seconds * 1e9));
  }

  sim::Actor& actor() { return actor_; }
  Transport& transport() { return tx_; }

  /// Open/close an application-defined region span on this rank (e.g. the
  /// per-iteration Cat::Iter spans nas::timed_loop emits for the critical-path
  /// analyzer). Returns 0 (and region_end no-ops) without a recorder.
  obs::SpanId region_begin(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    return span_begin(cat, bytes, a);
  }
  void region_end(obs::Cat cat, obs::SpanId sp, std::size_t bytes = 0, std::int64_t a = 0) {
    span_end(cat, sp, bytes, a);
  }

  // --- subsystem plumbing (used by mpi::Window; not part of the user API) --

  /// Reserved context for one-sided (RMA) traffic.
  static constexpr int kRmaContext = 2;
  Request isend_ctx(const void* buf, std::size_t len, int dst, int tag, int context) {
    return wrap(tx_.isend(global(dst), tag, ctx_base_ + context, buf, len));
  }
  Request irecv_ctx(void* buf, std::size_t cap, int src, int tag, int context) {
    return wrap(tx_.irecv(global_or_any(src), tag, ctx_base_ + context, buf, cap));
  }

 private:
  friend class ::nmx::coll::Engine;  // uses inline plumbing only (see coll.hpp)

  static constexpr int kUserContext = 0;
  static constexpr int kCollContext = 1;

  Request wrap(TxRequest* r) {
    Request h;
    h.req_ = r;
    return h;
  }
  obs::Recorder* rec() { return eng_.recorder(); }
  void trace(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    if (obs::Recorder* r = rec()) r->instant(eng_.now(), rank_, cat, bytes, a);
  }
  obs::SpanId span_begin(obs::Cat cat, std::size_t bytes = 0, std::int64_t a = 0) {
    obs::Recorder* r = rec();
    return r != nullptr ? r->begin(eng_.now(), rank_, cat, bytes, a) : obs::SpanId{0};
  }
  void span_end(obs::Cat cat, obs::SpanId sp, std::size_t bytes = 0, std::int64_t a = 0) {
    if (sp == 0) return;
    if (obs::Recorder* r = rec()) r->end(eng_.now(), rank_, cat, sp, bytes, a);
  }
  /// local rank in this communicator -> transport (world) rank
  int global(int local) const {
    NMX_ASSERT_MSG(local >= 0 && local < size_, "peer rank outside this communicator");
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }
  int global_or_any(int local) const { return local == ANY_SOURCE ? ANY_SOURCE : global(local); }
  /// world rank in a status -> local rank in this communicator
  Status localized(Status st) const {
    if (st.source >= 0) st.source = local_of(st.source);
    return st;
  }
  /// Identity for the world communicator; else a binary search: group_
  /// itself when it is sorted by world rank (key-ordered splits), else the
  /// (world, local) index.
  int local_of(int world) const {
    if (group_.empty()) {
      NMX_ASSERT_MSG(world >= 0 && world < size_, "status source outside this communicator");
      return world;
    }
    if (by_world_.empty()) {
      const auto it = std::lower_bound(group_.begin(), group_.end(), world);
      NMX_ASSERT_MSG(it != group_.end() && *it == world, "status source outside this communicator");
      return static_cast<int>(it - group_.begin());
    }
    const auto it = std::lower_bound(by_world_.begin(), by_world_.end(), world,
                                     [](const auto& wl, int w) { return wl.first < w; });
    NMX_ASSERT_MSG(it != by_world_.end() && it->first == world,
                   "status source outside this communicator");
    return it->second;
  }
  /// Build by_world_ for a group that is not sorted by world rank.
  void index_group();
  // collective-internal pt2pt on the collective context
  void csend(const void* buf, std::size_t len, int dst, int tag);
  Status crecv(void* buf, std::size_t cap, int src, int tag);
  Status csendrecv(const void* sbuf, std::size_t slen, int dst, int stag, void* rbuf,
                   std::size_t rcap, int src, int rtag);

  template <class T>
  static void apply(ReduceOp op, T* inout, const T* in, std::size_t n);

  /// Shared tail of allreduce/allreduce_rd: hand the byte-erased in-place
  /// vector to the coll engine. One scalar double is NIC-offloadable.
  template <class T>
  void allreduce_inplace(T* data, std::size_t count, ReduceOp op, const coll::Config& cfg) {
    const int nic_op = std::is_same_v<T, double> && count == 1 ? static_cast<int>(op) : -1;
    coll::Engine::allreduce(
        *this, data, sizeof(T), count,
        [op](void* inout, const void* in, std::size_t n) {
          apply(op, static_cast<T*>(inout), static_cast<const T*>(in), n);
        },
        nic_op, cfg);
  }

  sim::Actor& actor_;
  Transport& tx_;
  sim::Engine& eng_;
  int rank_;
  int size_;
  int local_ranks_;
  /// local rank -> world rank; empty for the world communicator (identity),
  /// so a rank holds no per-peer table unless it splits.
  std::vector<int> group_;
  /// (world, local) sorted by world rank; empty when group_ is sorted.
  std::vector<std::pair<int, int>> by_world_;
  int ctx_base_ = 0;        ///< context block of this communicator
  int next_split_ctx_ = 16; ///< context block for the next split (collective)
  coll::Config coll_;       ///< collective algorithm selection
  /// Group-wide collective sequence number: feeds the NIC combine-tree ids
  /// (identical call sequence on every member keeps it in agreement).
  std::uint32_t next_coll_id_ = 1;
};

// ---------------------------------------------------------------------------
// templated collectives
// ---------------------------------------------------------------------------

template <class T>
void Comm::apply(ReduceOp op, T* inout, const T* in, std::size_t n) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] + in[i];
      break;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < n; ++i) inout[i] = inout[i] * in[i];
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] < inout[i] ? in[i] : inout[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] > inout[i] ? in[i] : inout[i];
      break;
  }
}

template <class T>
void Comm::reduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op, int root) {
  // Binomial-tree reduce on the rank space rotated so `root` maps to 0.
  constexpr int kTag = 3000;
  const int vr = (rank_ - root + size_) % size_;
  std::vector<T> acc(sendbuf, sendbuf + count);
  std::vector<T> tmp(count);

  int lowbit = vr == 0 ? 1 : (vr & -vr);
  if (vr == 0) {
    while (lowbit < size_) lowbit <<= 1;
  }
  for (int m = 1; m < lowbit && vr + m < size_; m <<= 1) {
    const int child = (vr + m + root) % size_;
    crecv(tmp.data(), count * sizeof(T), child, kTag);
    apply(op, acc.data(), tmp.data(), count);
  }
  if (vr != 0) {
    const int parent = (vr - lowbit + root) % size_;
    csend(acc.data(), count * sizeof(T), parent, kTag);
  } else if (recvbuf != nullptr) {
    std::memcpy(recvbuf, acc.data(), count * sizeof(T));
  }
}

template <class T>
void Comm::allreduce(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
  if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  allreduce_inplace(recvbuf, count, op, coll_);
}

template <class T>
void Comm::allreduce_rd(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
  if (recvbuf != sendbuf) std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  coll::Config cfg = coll_;
  cfg.allreduce = coll::Algo::RecDoubling;
  allreduce_inplace(recvbuf, count, op, cfg);
}

template <class T>
void Comm::scan(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
  // Linear pipeline: receive the prefix from rank-1, fold in our values,
  // forward to rank+1.
  constexpr int kTag = 8000;
  std::vector<T> acc(sendbuf, sendbuf + count);
  if (rank_ > 0) {
    std::vector<T> prefix(count);
    crecv(prefix.data(), count * sizeof(T), rank_ - 1, kTag);
    apply(op, acc.data(), prefix.data(), count);
  }
  if (rank_ + 1 < size_) csend(acc.data(), count * sizeof(T), rank_ + 1, kTag);
  std::memcpy(recvbuf, acc.data(), count * sizeof(T));
}

template <class T>
void Comm::reduce_scatter_block(const T* sendbuf, T* recvbuf, std::size_t count, ReduceOp op) {
  // Reduce the full vector to rank 0, then scatter the blocks.
  std::vector<T> full(count * static_cast<std::size_t>(size_));
  reduce(sendbuf, full.data(), count * static_cast<std::size_t>(size_), op, 0);
  scatter(full.data(), count * sizeof(T), recvbuf, 0);
}

}  // namespace nmx::mpi
