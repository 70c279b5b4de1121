// The NewMadeleine communication core: the nm_sr interface (§2.2.1), internal
// tag matching, the eager / internal-rendezvous protocols, the submission
// window drained by strategies, and the per-rail drivers.
//
// Progress rule (the key to Figure 7): NewMadeleine "works with the network's
// activity" — requests are queued, and the software steps that move them
// (packing by the strategy, NIC submission, incoming-packet handling,
// rendezvous replies) run only while some party is *in the progress engine*:
// either an application thread inside an MPI call (enter_progress /
// leave_progress bracket) or PIOMan reacting in the background (service()).
// Hardware-side events (NIC egress completion, wire delivery) always fire;
// it is the software reaction to them that is gated.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/node_pool.hpp"
#include "common/ring.hpp"
#include "common/stable_map.hpp"
#include "net/fabric.hpp"
#include "nmad/sampling.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "nmad/wire.hpp"
#include "sim/engine.hpp"

namespace nmx::nmad {

/// Result of probing the unexpected queues (feeds the CH3 any-source lists).
struct ProbeInfo {
  int src = -1;
  Tag tag = 0;
  std::size_t len = 0;
};

class Core {
 public:
  /// `peers` reaches every process's endpoint; this core sends through it
  /// and is registered in it (rx_wire) by whoever builds the processes.
  /// `pool` recycles packet entry storage among the cores of one cluster.
  Core(sim::Engine& eng, net::Fabric& fabric, net::Endpoints<WireMsg>& peers, WirePool& pool,
       int my_proc, Config cfg);

  int proc() const { return my_proc_; }
  const Sampling& sampling() const { return sampling_; }

  // --- nm_sr interface ----------------------------------------------------

  /// nm_sr_isend(destination, tag, buffer, size) — §2.2.1. `span` is the
  /// upper layer's message-lifecycle span id (0 = none), threaded onto the
  /// wire entries for end-to-end tracing.
  Request* isend(int dst, Tag tag, const void* buf, std::size_t len, void* user_ctx = nullptr,
                 std::uint64_t span = 0);
  /// nm_sr_irecv(source, tag, buffer, capacity) — §2.2.1. The source must be
  /// known; MPI_ANY_SOURCE is handled above us by the CH3 lists (§3.2).
  Request* irecv(int src, Tag tag, void* buf, std::size_t len, void* user_ctx = nullptr,
                 std::uint64_t span = 0);

  bool test(const Request* r) const { return r->completed; }
  /// Free a request the upper layer is done with. Requests cannot be
  /// cancelled (§2.2.1) — only completed requests may be released.
  void release(Request* r);

  /// Non-destructive look at the unexpected queues: the oldest message
  /// matching (src?, selector). This is the "new NewMadeleine function" the
  /// module polls for any-source handling (§3.2.2).
  std::optional<ProbeInfo> probe(std::optional<int> src, TagSelector sel) const;

  /// Fired on the engine thread whenever a request completes (§3.1.3: lets
  /// the module mark the corresponding CH3 request complete).
  void set_on_complete(std::function<void(Request&)> fn) { on_complete_ = std::move(fn); }

  /// Fired when a message lands with no posted request — the trigger for
  /// the CH3 any-source lists to probe and dynamically create a request.
  void set_on_unexpected(std::function<void(const ProbeInfo&)> fn) {
    on_unexpected_ = std::move(fn);
  }

  /// A packet landed on fabric rail `rail` (this core's Endpoints handler).
  void rx_wire(int rail, WireMsg&& m);

  // --- progress control ---------------------------------------------------

  /// Bracket for blocking MPI calls: while the depth is nonzero, incoming
  /// packets are handled and strategies flushed as events arrive.
  void enter_progress();
  void leave_progress();
  bool progress_allowed() const { return progress_depth_ > 0; }

  /// One explicit progress pass (MPI_Test / netmod poll).
  void progress();

  /// PIOMan's entry point: a progress pass made by the background engine.
  void service() {
    ++progress_depth_;
    progress();
    --progress_depth_;
  }

  /// Called when gated work appears while nobody is in the progress engine
  /// — PIOMan hooks this to schedule a background reaction (§2.2.2).
  void set_async_notifier(std::function<void()> fn) { async_notifier_ = std::move(fn); }
  bool has_gated_work() const { return !pending_rx_.empty() || pending_flush_; }

  // --- introspection ------------------------------------------------------

  std::size_t outstanding_requests() const { return live_.size(); }
  std::size_t unexpected_count() const { return unexpected_total_; }
  std::size_t rdv_started() const { return rdv_started_; }

  // --- NIC-offloaded collectives (Yu/Buntinas/Graham/Panda model) ---------

  /// Post this rank's contribution to NIC combine tree `coll_id`: the NIC
  /// unit folds children's values into ours (op per the coll layer's
  /// encoding), forwards the partial up the tree (`parent`, -1 = root), and
  /// the root's broadcast-down releases every rank by firing `done(result)`.
  /// Control packets are handled by the NIC itself — no host matching, no
  /// deliver overhead, and no progress gating — and each tree edge picks the
  /// rail with the earliest predicted egress among live rails, so a dead or
  /// congested rail bends the combine tree like any other cost-model edge.
  void nic_coll_post(std::uint64_t coll_id, int parent, std::vector<int> children, double value,
                     int op, std::function<void(double)> done);

 private:
  struct Unexpected {
    std::uint64_t arrival = 0;  ///< global arrival order (for wildcard probe)
    bool rdv = false;
    std::size_t len = 0;
    std::uint64_t rdv_id = 0;
    std::uint64_t span = 0;  ///< sender's message span (deferred-match linking)
    Payload payload;  ///< eager snapshot only
  };

  /// An Eager or Rts entry waiting for its sequence turn (multirail safety).
  struct PendingIngest {
    Entry entry;
    int fabric_rail = -1;
  };

  /// Matching state of one (peer, tag) pair: the non-overtaking sequence
  /// counters of both directions, entries that arrived ahead of their turn,
  /// and the posted / unexpected queues. Sender-only channels are common, so
  /// every container is one that does not allocate while empty; the queue
  /// nodes come from and return to the core's spare lists. A channel is
  /// never erased: its counters must stay in step with the other end's.
  struct Channel {
    std::uint32_t send_seq = 0;
    std::uint32_t recv_seq = 0;
    std::map<std::uint32_t, PendingIngest> out_of_order;  ///< keyed by seq
    std::list<Request*> posted;
    std::list<Unexpected> unexpected;
  };

  struct ChannelKey {
    int peer;
    Tag tag;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::uint64_t operator()(const ChannelKey& k) const noexcept {
      return k.tag * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint32_t>(k.peer);
    }
  };

  /// Rendezvous bytes from one peer that landed per local rail — the
  /// observed arrival mix used to attribute granted-but-unlanded bytes to
  /// rails in the CTS load advertisement. Exponentially time-decayed
  /// (kMixDecayTau) so the mix tracks the *current* landing rate: a rail that
  /// stopped landing bytes stops attracting backlog attribution instead of
  /// being pinned forever by stale history.
  struct RxMix {
    std::vector<double> by_rail;
    Time t = 0;  ///< last time the decay was applied
  };

  struct RdvIn {
    Request* req = nullptr;
    /// Grant epoch: bumped on receiver restart so chunks answering a stale
    /// grant are recognised and dropped instead of double-landed.
    std::uint32_t epoch = 0;
  };

  struct Note {  // sender-side egress bookkeeping
    Request* sreq;
    Entry::Kind kind;
    std::size_t bytes;  ///< payload bytes (rendezvous byte accounting)
    /// Grant epoch the chunk was sent under; a note from a superseded epoch
    /// must not decrement the (replayed) outstanding-byte count.
    std::uint32_t epoch;
  };

  struct Driver {
    int fabric_rail = 0;
    std::string label;          ///< "rail=<local rail>" metric label
    bool busy = false;
    bool dead = false;          ///< fail-stop: never submit here again
    std::uint64_t tx_span = 0;  ///< open NicTx span (one per rail: busy-gated)
    Time tx_begin = 0;          ///< submission time of the in-flight packet
    Time tx_pred = 0;           ///< cost-model predicted egress completion
    std::vector<Note> notes;    ///< of the in-flight packet (one per driver)
  };

  Request* new_request(Request r);
  Channel& channel(int peer, Tag tag) { return channels_[ChannelKey{peer, tag}]; }
  /// Strategy hand-off, instrumented: StratEnqueue record + queue-depth gauge.
  void enqueue(Entry e);
  /// Scheduler observability: per-rail backlog/steal gauges plus counter-track
  /// samples (Perfetto "C" events) of the queue depths over time.
  void sample_sched();
  void kick();
  void try_flush();
  /// `nic_direct`: a NIC-offloaded collective packet — charged the firmware
  /// processing cost instead of host injection + copy overheads.
  void submit(int local_rail, WireMsg wm, bool nic_direct = false);
  void on_egress(int local_rail);
  void drain_rx();
  void handle_wire(int fabric_rail, WireMsg m);
  /// Deliver one wire entry to its protocol handler (post fault filtering).
  void dispatch_entry(int src, int fabric_rail, Entry e);
  /// Finds the entry's channel (the one matching-table lookup per arrival)
  /// and hands it, in sequence order, to deliver_eager / handle_rts.
  void ingest_ordered(int src, Entry e, int fabric_rail);
  void deliver_eager(Channel& ch, int src, Entry& e, int fabric_rail);
  void handle_rts(Channel& ch, int src, Entry& e);
  /// An Rts whose matching slot was already consumed (wire duplicate or
  /// sender retransmission): re-grant when our CTS was the casualty.
  void handle_dup_rts(int src, Entry& e);
  void handle_cts(int src, Entry& cts);
  /// (Re)start the rendezvous data phase after a grant: reset the
  /// outstanding-byte count and enqueue the payload under req->epoch.
  void start_rdv_data(Request* req, Entry& cts);
  void handle_rdv_data(int src, int fabric_rail, Entry& e);
  /// Receiver->sender completion ack: every byte of the rendezvous landed
  /// under this grant epoch. Sets fin_seen and attempts retirement.
  void handle_rdv_fin(Entry& e);
  /// Enqueue the completion ack once the last rendezvous byte lands.
  void send_rdv_fin(int dst, std::uint64_t rdv_id, std::size_t landed, std::uint32_t epoch,
                    std::uint64_t span);
  /// Retire a sender-side rendezvous iff the receiver acked completion
  /// (fin_seen), all bytes cleared egress, and no note is in flight. Gating
  /// on the ack closes the restart orphan window: egress alone does not
  /// prove delivery, and a restart re-grant may still be racing toward us.
  void try_retire(Request* req);
  void start_rdv_recv(int src, Request* req, std::uint64_t rdv_id, std::size_t total,
                      std::uint64_t sender_span = 0);
  /// Build and enqueue one CTS grant (initial grant, re-grant on duplicate
  /// RTS, restart re-grant).
  void send_cts(int dst, std::uint64_t rdv_id, std::uint32_t epoch, std::uint64_t span);
  /// CTS-timeout handler: retransmit the RTS with exponential backoff.
  void rts_retry(Request* req);
  /// Fail-stop rail death: mark the driver, displace + re-route queued
  /// entries, notify rendezvous peers. `from_wire` marks a peer notification
  /// (no re-notify; the local-NIC report path sends them).
  void handle_rail_down(int fabric_rail, bool from_wire);
  /// Fault-plan restart listener: wipe rendezvous landing progress and
  /// re-grant every pending inbound rendezvous under a bumped epoch.
  void on_restart();
  void complete(Request& r);
  void notify_async();
  bool any_rail_needs_registration() const;
  /// Local rail index driving `fabric_rail`, or -1 when this core does not
  /// drive it (heterogeneous per-process rail bindings).
  int local_rail_of(int fabric_rail) const;
  /// The receiver's per-rail load advertisement for a CTS grant: ingress
  /// occupancy past "now" plus granted-but-unlanded inbound bytes (excluding
  /// the rendezvous being granted, which the sender accounts for itself).
  std::vector<RailAd> sample_rail_ads(int granting_src, std::uint64_t granting_rdv) const;
  /// Apply the exponential landing-mix decay (idempotent per time).
  void decay_rx_mix(RxMix& m) const;

  // NIC collective unit internals. State is keyed by collective id; arrivals
  // may precede the local post (the CollCtl carries the op), so entries are
  // created on first touch.
  struct NicColl {
    int parent = -1;
    std::vector<int> children;
    std::size_t arrived = 0;  ///< children contributions combined so far
    bool posted = false;      ///< local rank contributed (done/children valid)
    bool has_acc = false;
    double acc = 0;
    int op = 0;
    std::function<void(double)> done;
  };
  /// CollCtl arrival, after the NIC processing delay.
  void nic_coll_rx(std::uint64_t id, double value, std::uint32_t ctl);
  /// Forward the partial up (or release at the root) once everything local
  /// arrived and the local contribution was posted.
  void nic_coll_maybe_up(std::uint64_t id, NicColl& st);
  /// Root result reached this rank: forward down the tree and fire done().
  void nic_coll_release(std::uint64_t id, double result);
  void nic_coll_send(int dst, std::uint64_t id, double value, std::uint32_t ctl);
  /// Submit queued CollCtl packets: each picks the live rail with the
  /// earliest predicted egress completion. Runs unconditionally from egress
  /// events — the NIC unit does not wait for host progress.
  void drain_nic_txq();

  sim::Engine& eng_;
  net::Fabric& fabric_;
  net::Endpoints<WireMsg>& peers_;
  WirePool& pool_;
  int my_proc_;
  int my_node_;
  Config cfg_;
  Sampling sampling_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<Driver> drivers_;

  NodePool<Request> live_;
  std::list<Request*> spare_posted_;     ///< released Channel::posted nodes
  std::list<Unexpected> spare_unexpected_;  ///< released Channel::unexpected nodes
  /// The (peer, tag) matching table: one index probe per isend / irecv /
  /// arrival. Channels are never erased and never move, so a Channel& held
  /// across an upcall survives channels created inside it.
  StableMap<ChannelKey, Channel, ChannelKeyHash> channels_;
  std::unordered_map<int, RxMix> rx_mix_;  ///< per peer; rendezvous paths only
  std::unordered_map<std::uint64_t, Request*> rdv_out_;  ///< rdv_id -> send req
  std::map<std::pair<int, std::uint64_t>, RdvIn> rdv_in_;

  struct RxItem {
    int fabric_rail = -1;  ///< rail the packet arrived on (for the rx mix)
    WireMsg msg;
  };
  Ring<RxItem> pending_rx_;
  bool pending_flush_ = false;
  int progress_depth_ = 0;

  std::map<std::uint64_t, NicColl> nic_colls_;
  Ring<Entry> nic_txq_;  ///< CollCtl packets awaiting a free rail

  std::function<void(Request&)> on_complete_;
  std::function<void(const ProbeInfo&)> on_unexpected_;
  std::function<void()> async_notifier_;

  std::uint64_t next_rdv_ = 1;
  std::uint64_t arrival_counter_ = 0;
  std::size_t unexpected_total_ = 0;
  std::size_t rdv_started_ = 0;
  std::size_t strat_depth_ = 0;  ///< entries handed to the strategy, not yet on a NIC
};

}  // namespace nmx::nmad
