// The Nemesis intra-node channel (§2.1.1): a shared region of fixed-size
// message cells, one free queue + one receive queue per process, lock-free
// enqueue. Large messages are fragmented into cells; the receiver polls its
// single receive queue (which is what makes MPI_ANY_SOURCE cheap here).
//
// Cells do not hold bytes: the message (its fixed packet header + payload)
// is parked in a node-side slot that its first cell names, and every cell
// carries only its fragment length. The host copies a shared-memory byte
// twice — the sender's snapshot and the receiver's landing copy — while the
// model charges the cell copies.
//
// Timing model: copying into a cell occupies the sender CPU (serialized via a
// Channel), each cell then becomes visible to the receiver after
// calib::kShmLatency plus the copy-out cost, both charged by the cell's
// fragment length (+ header on the first cell). Flow control is real: a sender
// with an empty free queue stalls until the receiver polls and returns cells
// — which is why a non-progressing receiver (computing, no PIOMan) stalls
// large shared-memory transfers, exactly the effect PIOMan exists to fix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ring.hpp"
#include "nemesis/lfqueue.hpp"
#include "net/calibration.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace nmx::nemesis {

/// The fixed packet header that rides a message's first cell, as MPICH2's
/// CH3 packet does. The rendezvous kinds implement the CH3 RTS/CTS/DATA
/// protocol of Figure 2 (used by CH3 intra-node, and on the network without
/// the bypass, §3.1.1); the baseline stacks send Eager only. The channel
/// itself reads none of it. The legacy netmod path sends it as raw bytes, so
/// its size is part of that path's modeled cost.
struct ShmHdr {
  enum class Kind : std::uint8_t { Eager, Rts, Cts, Data };
  Kind kind = Kind::Eager;
  int src_rank = -1;
  int tag = 0;
  int context = 0;
  std::uint64_t rdv_id = 0;
  std::size_t len = 0;     ///< full payload size (Rts announces it)
  std::uint64_t span = 0;  ///< sender's message-lifecycle span (tracing)
};

/// One logical message handed to / delivered by the channel. The channel
/// owns the message from send() to delivery: header and payload travel with
/// the first cell and are handed to the receiver once every fragment has
/// landed.
struct Message {
  int src_local = -1;  ///< sender's node-local process index
  ShmHdr header;
  std::vector<std::byte> payload;
};

/// Copy of the `len` bytes at `buf` for a payload: one allocation filled by
/// one copy, no zero-fill first.
inline std::vector<std::byte> snapshot(const void* buf, std::size_t len) {
  const auto* bytes = static_cast<const std::byte*>(buf);
  return std::vector<std::byte>(bytes, bytes + len);
}

/// The shared-memory region and queue state of one node.
class ShmNode {
 public:
  /// Called when every cell of a message for `dst_local` has been drained
  /// by poll(). Runs on the engine thread at poll time.
  using DeliverFn = std::function<void(Message&&)>;
  /// Called (engine thread) whenever a cell lands in a process's receive
  /// queue — the hook the progress layer / PIOMan mailbox watches.
  using ActivityFn = std::function<void()>;

  /// Cells each process contributes to the region (its free queue).
  static constexpr std::size_t kCellsPerProc = 64;
  /// Modeled size of the packet header copied with the first cell.
  static constexpr std::size_t kHeaderBytes = 64;

  ShmNode(sim::Engine& eng, int num_local_procs);

  int num_local_procs() const { return num_local_; }

  void set_deliver(int local_proc, DeliverFn fn);
  void set_activity_hook(int local_proc, ActivityFn fn);

  /// Asynchronously send `msg` to `dst_local`. Per-sender FIFO ordering.
  void send(int dst_local, Message msg);

  /// Drain `local_proc`'s receive queue: dequeue arrived cells, count their
  /// fragments, deliver completed messages, return cells to their owners'
  /// free queues. Returns true if any cell was processed. Called from
  /// progress engines.
  bool poll(int local_proc);

  /// PIOMan mailbox counter (§3.3.2): incremented when a cell is enqueued,
  /// so the I/O manager "can check the state of shared memory as it checks
  /// the state of networks" without a full poll.
  std::uint64_t mailbox(int local_proc) const;

  std::size_t cells_in_flight() const { return cells_in_flight_; }

 private:
  /// Index into `messages_`; kNoMessage on every cell but a first one.
  using MessageSlot = std::int32_t;
  static constexpr MessageSlot kNoMessage = -1;

  struct Cell {
    int owner = -1;      ///< process whose free queue this cell belongs to
    int src_local = -1;  ///< filled at send time
    int dst_local = -1;
    MessageSlot msg = kNoMessage;  ///< first fragment: the message it carries
    std::size_t frag = 0;          ///< payload bytes this cell stands for
  };

  struct PendingSend {
    int dst_local;
    Message msg;  ///< parked for the first cell once that cell is taken
    /// Payload size, kept here: after the first cell leaves, `msg` is empty
    /// and a sender stalled on its free queue resumes from these counters.
    std::size_t total;
    std::size_t offset = 0;
    bool started = false;
  };

  struct ProcState {
    LockFreeQueue free_queue;
    LockFreeQueue recv_queue;
    Ring<PendingSend> sends;  ///< FIFO of outgoing messages (keeps its storage)
    bool waiting_for_cell = false;
    net::Channel cpu;  ///< serializes this process's copy-in work
    Time last_arrival = 0;  ///< keeps this sender's cell arrivals in order
    DeliverFn deliver;
    ActivityFn activity;
    std::uint64_t mailbox = 0;
    // The in-flight message from each local sender: taken from its first
    // cell, delivered once the fragment lengths add up to its payload size.
    struct Partial {
      MessageSlot msg = kNoMessage;  ///< kNoMessage while none is in flight
      std::size_t received = 0;
    };
    std::vector<Partial> partial;  ///< indexed by src_local
  };

  void pump(int src_local);
  MessageSlot park(Message&& msg);
  static Time copy_time(std::size_t bytes) {
    return static_cast<double>(bytes) / calib::kShmCopyBandwidth;
  }

  sim::Engine& eng_;
  int num_local_;
  CellPool pool_;
  std::vector<Cell> cells_;
  /// Messages between their first cell's injection and their delivery, so
  /// a cell stays a few words; slots are reused, so this grows only to the
  /// most messages ever in flight at once.
  std::vector<Message> messages_;
  std::vector<MessageSlot> free_messages_;
  std::vector<ProcState> procs_;
  std::size_t cells_in_flight_ = 0;
};

}  // namespace nmx::nemesis
