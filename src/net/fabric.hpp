// The simulated network fabric: per-node NICs on each rail and FIFO occupancy
// on both the egress and ingress side (which is where NIC contention — a
// motivating concern of the paper's introduction — emerges mechanistically).
// The fabric only times bytes: what a packet carries stays with the client,
// whose delivery closure the fabric fires when the last byte lands and which
// hands the message to its destination's endpoint (Endpoints below).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace nmx::net {

/// What the NIC times of a packet: its route and size. The content travels
/// in the client's delivery closure (Fabric::transmit).
struct WirePacket {
  int src_node = -1;
  int dst_node = -1;
  int rail = -1;
  std::size_t bytes = 0;
};

/// One direction of a NIC: a FIFO resource that transfers occupy.
class Channel {
 public:
  /// Reserve the channel for `duration` starting no earlier than `t`.
  /// Returns the interval [begin, end) actually granted.
  struct Grant {
    Time begin;
    Time end;
  };
  Grant reserve(Time t, Time duration) {
    const Time begin = std::max(t, busy_until_);
    busy_until_ = begin + duration;
    return {begin, busy_until_};
  }
  Time busy_until() const { return busy_until_; }

 private:
  Time busy_until_ = 0;
};

class Fabric {
 public:
  Fabric(sim::Engine& eng, Topology topo);

  const Topology& topology() const { return topo_; }
  const NicProfile& profile(int rail) const;

  /// Queue `pkt` on the source node's NIC for `pkt.rail`. `deliver` (a
  /// closure that fits the engine's inline event slot) fires when the last
  /// byte lands (wire latency + occupancy + any queueing behind earlier
  /// transfers on either NIC). Returns the time the sending NIC finishes
  /// reading the buffer (local/egress completion) — drivers use it to
  /// schedule their next submission.
  ///
  /// Reserves NIC occupancy *at the current virtual time*: calling this from
  /// an actor body instead of a scheduled callback would book the channel
  /// before the driver's software pre-cost has elapsed, corrupting every
  /// load probe that reads busy_until. nmx_lint's thread-discipline pass
  /// enforces the marker below.
  // nmx-lint: engine-context
  template <class Deliver> Time transmit(const WirePacket& pkt, Deliver&& deliver) {
    const Booking b = book(pkt);
    eng_.schedule_checked(b.delivery, std::forward<Deliver>(deliver));
    return b.egress_done;
  }

  /// Uncontended one-way transfer time on `rail` for `bytes` — what a
  /// network-sampling probe would measure on an idle machine.
  Time uncontended_time(int rail, std::size_t bytes) const;

  /// Uncontended *egress* time on `rail` for `bytes`: how long the sending
  /// NIC holds the buffer (what transmit() returns relative to submission on
  /// an idle machine). Excludes wire latency — that share overlaps with the
  /// sender's next submission, so completion-time estimators that include it
  /// carry a systematic offset.
  Time uncontended_egress_time(int rail, std::size_t bytes) const;

  /// Absolute time (node, rail)'s egress channel is booked until (<= now when
  /// the NIC is idle). This is the live occupancy signal a load-aware
  /// strategy reads; it includes traffic from co-located processes sharing
  /// the NIC, which the sender's own queue accounting cannot see.
  Time egress_busy_until(int node, int rail) const;

  /// Absolute time (node, rail)'s *ingress* channel is booked until (<= now
  /// when idle). Mirrors egress_busy_until for the receive direction: this is
  /// what a receiver samples at CTS-grant time to advertise its rail load to
  /// the sender (in-flight arrivals from any peer, including traffic for
  /// co-located processes sharing the NIC).
  Time ingress_busy_until(int node, int rail) const;

  std::size_t packets_sent() const { return packets_sent_; }

  /// Attach a fault plan (not owned; null = healthy fabric). Degraded rails
  /// transmit at beta_factor x bandwidth — *silently*: the uncontended_*
  /// probes keep answering with the healthy profile, so samplers only learn
  /// of the degradation through prediction error. Dead rails still deliver
  /// packets already granted admission (fail-stop at admission is the
  /// senders' job, via FaultPlan::on_rail_down); a transmit that races the
  /// death inside its software pre-cost window counts as in-flight and is
  /// delivered, surfacing as net.fault.tx_on_dead_rail.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  sim::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  struct Nic {
    Channel egress;
    Channel ingress;
  };
  struct Booking {
    Time egress_done;  ///< the sending NIC has read the buffer
    Time delivery;     ///< the last byte has landed at the receiving NIC
  };
  Nic& nic(int node, int rail);
  /// Reserve both NICs for `pkt` and count it: transmit() minus delivery.
  Booking book(const WirePacket& pkt);

  sim::Engine& eng_;
  Topology topo_;
  std::vector<Nic> nics_;  // node-major [node * num_rails + rail]
  std::vector<std::string> rail_labels_;  ///< "rail=<r>" metric label per rail
  std::size_t packets_sent_ = 0;
  sim::FaultPlan* fault_plan_ = nullptr;
};

/// Per-process receive handlers for one client message type (nmad's WireMsg,
/// the baselines' BasePkt): the last hop of a packet, from the client's
/// delivery closure to the destination process's endpoint. One flat table
/// indexed by proc, built by whoever builds the processes.
template <class Msg>
class Endpoints {
 public:
  /// Called with the fabric rail the message arrived on.
  using Handler = std::function<void(int rail, Msg&&)>;

  explicit Endpoints(int procs) : handlers_(static_cast<std::size_t>(std::max(procs, 0))) {}

  void register_proc(int proc, Handler h) {
    Handler& slot = at(proc);
    NMX_ASSERT_MSG(!slot, "proc endpoint registered twice");
    slot = std::move(h);
  }

  void deliver(int proc, int rail, Msg&& msg) {
    Handler& h = at(proc);
    NMX_ASSERT_MSG(h, "packet for unregistered process");
    h(rail, std::move(msg));
  }

 private:
  Handler& at(int proc) {
    NMX_ASSERT(proc >= 0 && static_cast<std::size_t>(proc) < handlers_.size());
    return handlers_[static_cast<std::size_t>(proc)];
  }

  std::vector<Handler> handlers_;
};

}  // namespace nmx::net
