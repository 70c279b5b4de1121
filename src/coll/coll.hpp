// Topology/rail-aware collective engine. One implementation of the MPI
// collectives (barrier, bcast, allreduce, alltoall) with selectable
// per-collective algorithms — binomial and k-ary trees, ring, recursive
// doubling, and a modeled NIC-offloaded combine tree (Yu/Buntinas/Graham/
// Panda) — that all stacks share through mpi::Comm.
//
// Every host-tree edge is an ordinary transport send, so its rail choice and
// rendezvous chunking route through the NewMadeleine cost model
// (Strategy::pick_rail / the CostModel chunk planner, fed by the RailAd
// two-ended horizons): the collective layer decides *who talks to whom*, the
// strategy decides *which wire carries it*. The NIC-offloaded path bypasses
// the host trees entirely: contributions combine inside the nmad::Core NIC
// unit and cross nodes as CollCtl control frames on the
// min-predicted-egress rail.
//
// Layering: nmx_coll sits *below* nmx_mpi (nmx_mpi links it). Engine is a
// friend of mpi::Comm and uses only Comm's inline members plus the raw
// Transport, so this library never references a symbol defined in comm.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace nmx::mpi {
class Comm;
struct TxRequest;
}  // namespace nmx::mpi

namespace nmx::coll {

/// Per-collective algorithm selector. Auto resolves to the op's default
/// (Engine::resolve_*), chosen to match the pre-engine behaviour:
/// dissemination barrier, binomial bcast, binomial reduce+bcast allreduce,
/// shifted-pairwise alltoall.
enum class Algo : std::uint8_t {
  Auto,         ///< the op's default algorithm
  Binomial,     ///< binomial tree (alltoall: Bruck's log-round algorithm)
  Kary,         ///< k-ary tree, arity Config::kary (alltoall: windowed pairwise)
  Ring,         ///< ring / pipelined chain (alltoall: shifted pairwise)
  RecDoubling,  ///< recursive doubling (bcast: binomial scatter + ring allgather)
  NicOffload,   ///< NIC combine tree; falls back to a host tree when the
                ///< stack has no NIC unit or the payload is not one double
};

const char* to_string(Algo a);
/// Parse "auto|binomial|kary|ring|recdbl|nic"; unknown text yields Auto.
Algo parse_algo(const std::string& s);

struct Config {
  Algo barrier = Algo::Auto;
  Algo bcast = Algo::Auto;
  Algo allreduce = Algo::Auto;
  Algo alltoall = Algo::Auto;
  /// Tree arity for Algo::Kary (also the in-flight window of the windowed
  /// alltoall). Clamped to >= 2 at use.
  int kary = 4;
  /// Pipeline chunk of the ring bcast: chunks this size flow down the chain
  /// with a bounded send window, so a long broadcast overlaps hops. Sized to
  /// a few rendezvous quanta by default.
  std::size_t ring_chunk = 256_KiB;

  /// Environment overrides: NMX_COLL_ALGO sets all four ops, then
  /// NMX_COLL_BARRIER / NMX_COLL_BCAST / NMX_COLL_ALLREDUCE /
  /// NMX_COLL_ALLTOALL override per op ("auto|binomial|kary|ring|recdbl|nic")
  /// and NMX_COLL_KARY sets the arity. Unset variables leave the
  /// programmatic configuration untouched.
  void apply_env();
};

/// Element-wise reduction: fold `count` elements of `in` into `inout`.
using ReduceFn = std::function<void(void* inout, const void* in, std::size_t count)>;

class Engine {
 public:
  static void barrier(mpi::Comm& c, const Config& cfg);
  static void bcast(mpi::Comm& c, void* buf, std::size_t len, int root, const Config& cfg);
  /// In-place allreduce: `data` holds this rank's `count` contributions of
  /// `elem` bytes and receives the combined vector. `nic_op` >= 0 (the NIC
  /// combine op code) marks a payload the NIC unit can take — one double —
  /// and is only honoured under Algo::NicOffload.
  static void allreduce(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                        const ReduceFn& fold, int nic_op, const Config& cfg);
  static void alltoall(mpi::Comm& c, const void* sendbuf, std::size_t block, void* recvbuf,
                       const Config& cfg);

  // Auto resolution, exposed so tests can pin the default per op.
  static Algo resolve_barrier(Algo a) { return a == Algo::Auto ? Algo::RecDoubling : a; }
  static Algo resolve_bcast(Algo a) { return a == Algo::Auto ? Algo::Binomial : a; }
  static Algo resolve_allreduce(Algo a) { return a == Algo::Auto ? Algo::Binomial : a; }
  static Algo resolve_alltoall(Algo a) { return a == Algo::Auto ? Algo::Ring : a; }

 private:
  // --- pt2pt plumbing on the collective context ----------------------------
  // Replicates Comm's csend/crecv family through friendship: same context,
  // same MpiWait span bookkeeping (the critpath walker needs the End arg to
  // name the request a wait resolved on).
  static int ctx(const mpi::Comm& c);
  static mpi::TxRequest* post_send(mpi::Comm& c, int dst, int tag, const void* buf,
                                   std::size_t len);
  static mpi::TxRequest* post_recv(mpi::Comm& c, int src, int tag, void* buf, std::size_t cap);
  static void wait(mpi::Comm& c, mpi::TxRequest* r);
  static void send(mpi::Comm& c, const void* buf, std::size_t len, int dst, int tag);
  static void recv(mpi::Comm& c, void* buf, std::size_t cap, int src, int tag);
  static void sendrecv(mpi::Comm& c, const void* sbuf, std::size_t slen, int dst, int stag,
                       void* rbuf, std::size_t rcap, int src, int rtag);

  // Cat::Coll span + nmad.coll.* metrics around one collective phase.
  static std::uint64_t phase_begin(mpi::Comm& c, int op_id, Algo algo, std::size_t bytes);
  static void phase_end(mpi::Comm& c, std::uint64_t sp, std::size_t bytes);

  /// Binomial (arity <= 0) or k-ary parent and children of virtual rank
  /// `vr` in a tree rooted at virtual rank 0. The children are computed, not
  /// stored, so a tree step allocates nothing.
  struct TreeEdges {
    int parent;    ///< -1 at the root
    int children;  ///< number of children
    int vr;
    int arity;
    /// The i-th child (0 <= i < children), ascending in i.
    int child(int i) const { return arity <= 0 ? vr + (1 << i) : vr * arity + 1 + i; }
  };
  static TreeEdges tree_edges(int vr, int size, int arity);

  /// NIC combine tree rooted at `root`: returns false when the transport has
  /// no NIC unit (caller falls back to a host tree).
  static bool nic_combine_tree(mpi::Comm& c, double* value, int op, int root);

  // barrier bodies
  static void barrier_dissemination(mpi::Comm& c);
  static void barrier_tree(mpi::Comm& c, int arity);
  static void barrier_ring(mpi::Comm& c);

  // bcast bodies
  static void bcast_tree(mpi::Comm& c, void* buf, std::size_t len, int root, int arity);
  static void bcast_ring(mpi::Comm& c, void* buf, std::size_t len, int root, std::size_t chunk);
  static void bcast_scatter_allgather(mpi::Comm& c, void* buf, std::size_t len, int root);

  // allreduce bodies (root 0 where rooted)
  static void reduce_tree(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                          const ReduceFn& fold, int arity);
  static void allreduce_rd_impl(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                                const ReduceFn& fold);
  static void allreduce_ring(mpi::Comm& c, void* data, std::size_t elem, std::size_t count,
                             const ReduceFn& fold);

  // alltoall bodies
  static void alltoall_pairwise(mpi::Comm& c, const std::byte* in, std::size_t block,
                                std::byte* out);
  static void alltoall_bruck(mpi::Comm& c, const std::byte* in, std::size_t block,
                             std::byte* out);
  static void alltoall_xor(mpi::Comm& c, const std::byte* in, std::size_t block, std::byte* out);
  static void alltoall_windowed(mpi::Comm& c, const std::byte* in, std::size_t block,
                                std::byte* out, int window);
};

}  // namespace nmx::coll
