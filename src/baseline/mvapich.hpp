// MVAPICH2 1.0.3-like comparison stack (§4: "MVAPICH2 which is derived from
// MPICH2"): a thin ADI3 device straight on InfiniBand Verbs.
//
// Mechanisms that shape its curves in Figure 4:
//  * small eager messages copied through pre-registered vbufs (no
//    registration on the data path, but a copy on each side),
//  * RDMA rendezvous for large messages with a *registration cache* —
//    repeated transfers from the same buffer pay no pinning cost, which is
//    why it posts the best large-message bandwidth (NewMadeleine, §4.1.1,
//    registers on the fly every time),
//  * no background progression (Figure 7b: the handshake is not detected
//    during computation).
#pragma once

#include "baseline/base_transport.hpp"
#include "rcache/rcache.hpp"

namespace nmx::baseline {

class MvapichTransport final : public BaseTransport {
 public:
  /// `use_rcache` = false is the bench/abl_rcache ablation: register on
  /// every rendezvous.
  MvapichTransport(Env env, bool use_rcache);

  const rcache::RegistrationCache& rcache() const { return rcache_; }

 protected:
  void net_send(BaseRequest* req, const void* buf, std::size_t len) override;
  void grant_rdv(BaseRequest* req, const BasePkt& rts) override;
  void handle_protocol(BasePkt&& pkt) override;

 private:
  Time acquire_registration(const void* buf, std::size_t len);

  bool use_rcache_;
  rcache::RegistrationCache rcache_;
  std::uint64_t next_xid_ = 1;
  std::map<std::uint64_t, std::pair<BaseRequest*, const std::byte*>> rdv_out_;
};

}  // namespace nmx::baseline
