#include "ch3/process.hpp"

#include <cstring>
#include <utility>

namespace nmx::ch3 {

namespace {
// Reserved context ids for the legacy netmod channel (never visible to MPI).
constexpr int kLegacyCtlContext = 0x7ffffff0;
constexpr int kLegacyDataContext = 0x7ffffff1;
// Loopback (self) delivery latency: a queue push and pop in one process.
constexpr Time kSelfLatency = 0.1_us;
// Intra-node CH3 eager/rendezvous switch (Nemesis LMT).
constexpr std::size_t kShmRdvThreshold = 64_KiB;
// Legacy mode: netmod cell payload and the CH3 eager/rendezvous switch of
// the network path (single-cell eager keeps the cells fixed-size).
constexpr std::size_t kLegacyCellPayload = 32000;

std::vector<std::byte> serialize_ctl(const ShmHdr& hdr, const void* payload, std::size_t len) {
  std::vector<std::byte> buf(sizeof(ShmHdr) + len);
  std::memcpy(buf.data(), &hdr, sizeof(ShmHdr));
  if (len > 0) std::memcpy(buf.data() + sizeof(ShmHdr), payload, len);
  return buf;
}

// Inverse of serialize_ctl: take the header off the front of `cell`, which
// then holds the payload.
ShmHdr parse_ctl(std::vector<std::byte>& cell) {
  NMX_ASSERT(cell.size() >= sizeof(ShmHdr));
  ShmHdr hdr;
  std::memcpy(&hdr, cell.data(), sizeof(ShmHdr));
  cell.erase(cell.begin(), cell.begin() + sizeof(ShmHdr));
  return hdr;
}

// The nmad tag of a legacy CH3 rendezvous' DATA message.
nmad::Tag legacy_data_tag(std::uint64_t rdv_id) {
  return pack_tag(kLegacyDataContext, static_cast<int>(rdv_id & 0x7fffffff));
}
}  // namespace

Ch3Process::Ch3Process(sim::Engine& eng, net::Fabric& fabric,
                       net::Endpoints<nmad::WireMsg>& peers, nmad::WirePool& pool,
                       nemesis::ShmNode* shm, int rank, int local_index, Config cfg)
    : eng_(eng), fabric_(fabric), shm_(shm), rank_(rank), local_index_(local_index), cfg_(cfg) {
  cfg_.nmad.pioman_sync = cfg_.pioman;
  // §4.1.1: the CH3/netmod glue adds ~300 ns on top of NewMadeleine's own
  // generic-layer cost (1.8µs -> 2.1µs one-way).
  cfg_.nmad.sw_send += calib::kCh3SwSend;
  cfg_.nmad.sw_recv += calib::kCh3SwRecv;
  core_ = std::make_unique<nmad::Core>(eng, fabric, peers, pool, rank, cfg_.nmad);
  core_->set_on_complete([this](nmad::Request& r) { run_nmad_completion(r); });
  core_->set_on_unexpected([this](const nmad::ProbeInfo& info) {
    if (cfg_.bypass) {
      as_probe_all();
    } else if (unpack_context(info.tag) == kLegacyCtlContext) {
      // Data-context messages are never unexpected: the receive is posted
      // before the CH3 CTS that triggers them.
      legacy_fetch_ctl(info);
    }
  });

  if (shm_) {
    shm_->set_deliver(local_index_,
                      [this](nemesis::Message&& m) { handle_shm_message(std::move(m)); });
    shm_->set_activity_hook(local_index_, [this] {
      if (in_progress()) {
        shm_->poll(local_index_);
      } else if (pioman_) {
        pioman_->notify();
      }
      // else: cells wait for the next MPI call — no progress without PIOMan.
    });
  }

  if (cfg_.pioman) {
    // §3.3.1: one polling authority for both intra- and inter-node traffic.
    pioman::ManagerConfig pc;
    pc.rank = rank_;
    pioman_ = std::make_unique<pioman::Manager>(eng_, pc);
    pioman_->submit("nmad-progress", [this] {
      core_->service();
      if (cfg_.bypass) as_probe_all();
      return core_->has_gated_work();
    });
    if (shm_) {
      // §3.3.2: the shared-memory mailbox counter PIOMan watches.
      pioman_->submit("shm-mailbox", [this, last = std::uint64_t(0)]() mutable {
        const std::uint64_t mb = shm_->mailbox(local_index_);
        if (mb != last) {
          last = mb;
          shm_->poll(local_index_);
        }
        return false;
      });
    }
    core_->set_async_notifier([this] { pioman_->notify(); });
  }
}

Ch3Process::~Ch3Process() = default;

// ---------------------------------------------------------------------------
// pools and nmad plumbing
// ---------------------------------------------------------------------------

MpidRequest* Ch3Process::new_request(MpidRequest::Kind kind) {
  auto it = requests_.acquire();
  // A recycled request keeps the capacity of its waiter list.
  std::vector<sim::Actor*> waiters = std::move(it->waiters);
  waiters.clear();
  *it = MpidRequest{};
  it->waiters = std::move(waiters);
  it->self = it;
  it->kind = kind;
  return &*it;
}

Ch3Process::NmCtx* Ch3Process::new_ctx(std::function<void(nmad::Request&)> fn) {
  auto it = nm_ctxs_.acquire();
  it->self = it;
  it->fn = std::move(fn);
  return &*it;
}

void Ch3Process::run_nmad_completion(nmad::Request& r) {
  auto* ctx = static_cast<NmCtx*>(r.user_ctx);
  NMX_ASSERT_MSG(ctx != nullptr, "nmad request without completion context");
  auto fn = std::move(ctx->fn);
  nm_ctxs_.release(ctx->self);
  fn(r);
}

nmad::Request* Ch3Process::nm_isend(int dst, nmad::Tag tag, const void* buf, std::size_t len,
                                    std::function<void(nmad::Request&)> done, obs::SpanId span) {
  return core_->isend(dst, tag, buf, len, new_ctx(std::move(done)), span);
}

nmad::Request* Ch3Process::nm_irecv(int src, nmad::Tag tag, void* buf, std::size_t len,
                                    std::function<void(nmad::Request&)> done, obs::SpanId span) {
  return core_->irecv(src, tag, buf, len, new_ctx(std::move(done)), span);
}

void Ch3Process::release_later(nmad::Request& nr) {
  // Not from inside the completion upcall: the core still holds `nr` there.
  eng_.schedule_checked(eng_.now(), [this, pr = &nr] { core_->release(pr); });
}

// ---------------------------------------------------------------------------
// completion helpers
// ---------------------------------------------------------------------------

void Ch3Process::finish(MpidRequest* req) {
  if (req->via_any_source) {
    // §4.1.1: the any-source management adds a constant ~300 ns.
    eng_.schedule_in_checked(calib::kAnySourceOverhead, [req] { req->complete_and_wake(); });
  } else {
    req->complete_and_wake();
  }
}

void Ch3Process::complete_recv(MpidRequest* req, int src, int tag, std::size_t count,
                               obs::SpanId sender_span) {
  req->status.source = src;
  req->status.tag = tag;
  req->status.count = count;
  if (obs::Recorder* rec = eng_.recorder()) {
    // Match link for the critical-path analyzer: receiver's span -> the
    // sender's span that satisfied it (0 when the path cannot know it).
    if (req->span != 0 && sender_span != 0) {
      rec->link(eng_.now(), rank_, obs::Cat::MsgMatch, req->span, count,
                static_cast<std::int64_t>(sender_span));
    }
    rec->end(eng_.now(), rank_, obs::Cat::MsgRecv, req->span, count, src);
    req->span = 0;
  }
  finish(req);
}

void Ch3Process::complete_send(MpidRequest* req) {
  req->status.count = req->len;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->end(eng_.now(), rank_, obs::Cat::MsgSend, req->span, req->len, req->peer);
    req->span = 0;
  }
  finish(req);
}

// ---------------------------------------------------------------------------
// CH3 queue pair
// ---------------------------------------------------------------------------

MpidRequest* Ch3Process::match_posted(int src, int tag, int context) {
  for (MpidRequest* r : posted_queue_) {
    if (r->context != context) continue;
    if (r->peer != mpi::ANY_SOURCE && r->peer != src) continue;
    if (r->tag != mpi::ANY_TAG && r->tag != tag) continue;
    return r;
  }
  return nullptr;
}

void Ch3Process::push_posted(MpidRequest* req) {
  req->posted_it = push_back_recycled(posted_queue_, spare_posted_, req);
  req->in_posted_queue = true;
}

void Ch3Process::remove_posted(MpidRequest* req) {
  if (!req->in_posted_queue) return;
  recycle(posted_queue_, req->posted_it, spare_posted_);
  req->in_posted_queue = false;
}

bool Ch3Process::match_unexpected(MpidRequest* req) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->hdr.context != req->context) continue;
    if (req->peer != mpi::ANY_SOURCE && req->peer != it->hdr.src_rank) continue;
    if (req->tag != mpi::ANY_TAG && req->tag != it->hdr.tag) continue;
    UnexMsg msg = std::move(*it);
    recycle(unexpected_, it, spare_unexpected_);
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->metrics().gauge("ch3.unexpected.depth").set(static_cast<double>(unexpected_.size()));
    }
    satisfy(req, std::move(msg));
    return true;
  }
  return false;
}

void Ch3Process::deliver_local(UnexMsg msg) {
  MpidRequest* req = match_posted(msg.hdr.src_rank, msg.hdr.tag, msg.hdr.context);
  if (req == nullptr) {
    if (obs::Recorder* rec = eng_.recorder()) {
      rec->instant(eng_.now(), rank_, obs::Cat::Unexpected, msg.hdr.len, msg.hdr.src_rank);
      rec->metrics()
          .gauge("ch3.unexpected.depth")
          .set(static_cast<double>(unexpected_.size() + 1));
    }
    push_back_recycled(unexpected_, spare_unexpected_, std::move(msg));
    return;
  }
  remove_posted(req);
  if (req->peer == mpi::ANY_SOURCE && cfg_.bypass && !as_lists_.empty()) {
    // §3.2.2: an intra-node match removes the any-source entry and releases
    // the requests queued behind it.
    as_lists_.resolve(req, [this](MpidRequest* r) { release_deferred(r); });
  }
  satisfy(req, std::move(msg));
}

void Ch3Process::satisfy(MpidRequest* req, UnexMsg&& msg) {
  const ShmHdr& hdr = msg.hdr;
  NMX_ASSERT_MSG(hdr.len <= req->len, "message overflows receive buffer");
  if (hdr.kind == ShmHdr::Kind::Eager) {
    if (!msg.payload.empty()) std::memcpy(req->rbuf, msg.payload.data(), msg.payload.size());
    complete_recv(req, hdr.src_rank, hdr.tag, msg.payload.size(), hdr.span);
    return;
  }
  NMX_ASSERT(hdr.kind == ShmHdr::Kind::Rts);
  ShmHdr cts;
  cts.kind = ShmHdr::Kind::Cts;
  cts.src_rank = rank_;
  cts.tag = hdr.tag;
  cts.context = hdr.context;
  cts.rdv_id = hdr.rdv_id;
  if (same_node(hdr.src_rank)) {
    shm_rdv_in_.emplace(std::make_pair(hdr.src_rank, hdr.rdv_id), req);
    shm_->send(local_of(hdr.src_rank), nemesis::Message{local_index_, cts, {}});
    return;
  }
  // Legacy network rendezvous: post the data receive *before* granting, so
  // the DATA message (and the internal NewMadeleine rendezvous underneath
  // it) finds it posted.
  nm_irecv(hdr.src_rank, legacy_data_tag(hdr.rdv_id), req->rbuf, req->len,
           [this, req, src = hdr.src_rank, tag = hdr.tag](nmad::Request& nr) {
             complete_recv(req, src, tag, nr.received, nr.peer_span);
             release_later(nr);
           });
  legacy_send_ctl(hdr.src_rank, cts, nullptr, 0);
}

// ---------------------------------------------------------------------------
// Transport: isend / irecv
// ---------------------------------------------------------------------------

mpi::TxRequest* Ch3Process::isend(int dst, int tag, int context, const void* buf,
                                  std::size_t len) {
  NMX_ASSERT(dst >= 0 && dst < fabric_.topology().num_procs());
  NMX_ASSERT(tag >= 0 && context >= 0 && context < kLegacyCtlContext);
  MpidRequest* req = new_request(MpidRequest::Kind::Send);
  req->peer = dst;
  req->tag = tag;
  req->context = context;
  req->len = len;
  if (obs::Recorder* rec = eng_.recorder()) {
    req->span = rec->begin(eng_.now(), rank_, obs::Cat::MsgSend, len, dst);
  }
  // §3.1.2: MPICH2 gives each virtual connection an overridable send
  // function. Nothing overrides one after setup, so the choice is the
  // topology's: loopback, Nemesis shared memory, or — the paper's
  // modification — straight to nm_sr_isend for a remote peer, unless the
  // bypass is off and the stock netmod cells carry it.
  if (dst == rank_) {
    send_self(req, buf, len);
  } else if (same_node(dst)) {
    send_shm(req, buf, len);
  } else if (cfg_.bypass) {
    send_nmad_direct(req, buf, len);
  } else {
    send_legacy(req, buf, len);
  }
  return req;
}

mpi::TxRequest* Ch3Process::irecv(int src, int tag, int context, void* buf, std::size_t len) {
  MpidRequest* req = new_request(MpidRequest::Kind::Recv);
  req->peer = src;
  req->tag = tag;
  req->context = context;
  req->rbuf = static_cast<std::byte*>(buf);
  req->len = len;
  if (obs::Recorder* rec = eng_.recorder()) {
    req->span = rec->begin(eng_.now(), rank_, obs::Cat::MsgRecv, len, src);
  }

  if (src == mpi::ANY_SOURCE) {
    if (match_unexpected(req)) return req;
    push_posted(req);  // eligible for shared-memory / self matching
    if (cfg_.bypass) {
      as_lists_.add_any_source(req);
      as_probe_all();  // the message may already sit in nmad's buffers
    }
    return req;
  }

  const bool ch3_matched = src == rank_ || same_node(src) || !cfg_.bypass;
  if (ch3_matched) {
    if (match_unexpected(req)) return req;
    push_posted(req);
    return req;
  }

  if (tag == mpi::ANY_TAG) {
    // Known remote source but wildcard tag: NewMadeleine's exact matching
    // cannot serve it — park it in the wildcard lists like an any-source
    // request and create the NewMadeleine request once a message is known
    // to be there.
    if (match_unexpected(req)) return req;
    as_lists_.add_any_source(req);
    as_probe_all();
    return req;
  }

  // Known remote source on the bypass path: NewMadeleine does the matching —
  // unless an earlier wildcard request forces ordering (§3.2.2).
  if (as_lists_.blocks(context, tag)) {
    as_lists_.defer(req);
    return req;
  }
  post_remote_recv(req);
  return req;
}

void Ch3Process::post_remote_recv(MpidRequest* req) {
  req->nmad_req = nm_irecv(
      req->peer, pack_tag(req->context, req->tag), req->rbuf, req->len,
      [this, req](nmad::Request& nr) {
        complete_recv(req, nr.peer, unpack_user_tag(nr.tag), nr.received, nr.peer_span);
      },
      req->span);
}

void Ch3Process::release_deferred(MpidRequest* req) {
  if (as_lists_.blocks(req->context, req->tag)) {
    as_lists_.defer(req);  // still blocked (e.g. a wildcard-tag any-source)
    return;
  }
  post_remote_recv(req);
}

void Ch3Process::as_probe_all() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (MpidRequest* head : as_lists_.heads()) {
      const std::optional<int> src_filter =
          head->peer == mpi::ANY_SOURCE ? std::nullopt : std::optional<int>(head->peer);
      auto found = core_->probe(src_filter, selector_for(head->context, head->tag));
      if (found) {
        bind_any_source(head, *found);
        progressed = true;
        break;  // heads changed — restart the scan
      }
    }
  }
}

void Ch3Process::bind_any_source(MpidRequest* req, const nmad::ProbeInfo& found) {
  // The message sits in NewMadeleine's buffers: create the NewMadeleine
  // request dynamically; "it will be completed shortly after its creation".
  remove_posted(req);  // no longer eligible for shared-memory matching
  req->via_any_source = true;
  if (obs::Recorder* rec = eng_.recorder()) {
    rec->metrics().counter("ch3.anysource.binds").add(1);
  }
  req->nmad_req = nm_irecv(
      found.src, found.tag, req->rbuf, req->len,
      [this, req](nmad::Request& nr) {
        complete_recv(req, nr.peer, unpack_user_tag(nr.tag), nr.received, nr.peer_span);
      },
      req->span);
  // Now remove the entry and release the deferred requests behind it. Done
  // after binding so none of them can steal the probed message.
  as_lists_.resolve(req, [this](MpidRequest* r) { release_deferred(r); });
}

void Ch3Process::release(mpi::TxRequest* r) {
  auto* req = static_cast<MpidRequest*>(r);
  NMX_ASSERT_MSG(req->completed, "releasing an incomplete request");
  if (req->nmad_req != nullptr) {
    NMX_ASSERT(req->nmad_req->completed);
    core_->release(req->nmad_req);
  }
  requests_.release(req->self);
}

// ---------------------------------------------------------------------------
// send paths
// ---------------------------------------------------------------------------

ShmHdr Ch3Process::header_for(const MpidRequest* req, ShmHdr::Kind kind) const {
  ShmHdr hdr;
  hdr.kind = kind;
  hdr.src_rank = rank_;
  hdr.tag = req->tag;
  hdr.context = req->context;
  hdr.len = req->len;
  hdr.span = req->span;
  return hdr;
}

void Ch3Process::send_self(MpidRequest* req, const void* buf, std::size_t len) {
  UnexMsg msg{header_for(req, ShmHdr::Kind::Eager), nemesis::snapshot(buf, len)};
  eng_.schedule_in_checked(kSelfLatency, [this, msg = std::move(msg)]() mutable {
    deliver_local(std::move(msg));
  });
  complete_send(req);  // buffered
}

void Ch3Process::send_shm(MpidRequest* req, const void* buf, std::size_t len) {
  NMX_ASSERT_MSG(shm_ != nullptr, "same-node send without a shared-memory region");
  if (len <= kShmRdvThreshold) {
    shm_->send(local_of(req->peer), nemesis::Message{local_index_,
                                                     header_for(req, ShmHdr::Kind::Eager),
                                                     nemesis::snapshot(buf, len)});
    complete_send(req);  // snapshot taken — buffer reusable
  } else {
    // CH3 shared-memory rendezvous (the left half of Figure 2). The send
    // buffer stays the application's until CTS, where the one snapshot of
    // the payload is taken.
    ShmHdr rts = header_for(req, ShmHdr::Kind::Rts);
    rts.rdv_id = next_shm_rdv_++;
    shm_rdv_out_.emplace(rts.rdv_id, RdvOut{req, buf});
    shm_->send(local_of(req->peer), nemesis::Message{local_index_, rts, {}});
  }
}

void Ch3Process::send_nmad_direct(MpidRequest* req, const void* buf, std::size_t len) {
  req->nmad_req = nm_isend(
      req->peer, pack_tag(req->context, req->tag), buf, len,
      [this, req](nmad::Request&) { complete_send(req); }, req->span);
}

// CH3 legacy netmod path (bypass = false): CH3 protocols over NewMadeleine
// used as a dumb channel — copies through fixed cells, nested rendezvous.
void Ch3Process::send_legacy(MpidRequest* req, const void* buf, std::size_t len) {
  if (len <= kLegacyCellPayload) {
    legacy_send_ctl(req->peer, header_for(req, ShmHdr::Kind::Eager), buf, len, req);
  } else {
    // CH3 network rendezvous — whose DATA message will trigger
    // NewMadeleine's own internal rendezvous: the nested handshake of Fig 2.
    ShmHdr rts = header_for(req, ShmHdr::Kind::Rts);
    rts.rdv_id = next_net_rdv_++;
    net_rdv_out_.emplace(rts.rdv_id, RdvOut{req, buf});
    legacy_send_ctl(req->peer, rts, nullptr, 0);
  }
}

void Ch3Process::legacy_send_ctl(int dst, const ShmHdr& hdr, const void* payload,
                                 std::size_t len, MpidRequest* done) {
  auto cell = serialize_ctl(hdr, payload, len);
  nm_isend(dst, pack_tag(kLegacyCtlContext, 0), cell.data(), cell.size(),
           [this, done](nmad::Request& nr) {
             if (done != nullptr) complete_send(done);
             release_later(nr);
           });
}

void Ch3Process::legacy_fetch_ctl(const nmad::ProbeInfo& info) {
  // Dequeue the cell: receive it into a bounce buffer, then parse. The
  // extra copy is the §2.1.3 "unnecessary copies in and from the queue
  // cells" penalty of the non-bypassed design. `info` describes the message
  // at the front of its channel, which is the one this receive takes.
  std::vector<std::byte> cell(info.len);
  std::byte* const data = cell.data();  // moving the vector keeps its buffer
  nm_irecv(info.src, info.tag, data, info.len,
           [this, cell = std::move(cell)](nmad::Request& nr) mutable {
             NMX_ASSERT(nr.received == cell.size());
             eng_.schedule_in_checked(calib::copy_cost(nr.received),
                                      [this, cell = std::move(cell)]() mutable {
                                        const ShmHdr hdr = parse_ctl(cell);
                                        process_packet(hdr, std::move(cell));
                                      });
             release_later(nr);
           });
}

// ---------------------------------------------------------------------------
// CH3 packets, from the shared-memory cells or the legacy netmod cells
// ---------------------------------------------------------------------------

void Ch3Process::handle_shm_message(nemesis::Message&& m) {
  if (cfg_.pioman) {
    // §4.1.2: the thread-safe progression machinery costs ~450 ns per
    // shared-memory message.
    eng_.schedule_in_checked(calib::kPiomanShmOverhead,
                             [this, hdr = m.header, payload = std::move(m.payload)]() mutable {
                               process_packet(hdr, std::move(payload));
                             });
  } else {
    process_packet(m.header, std::move(m.payload));
  }
}

void Ch3Process::process_packet(const ShmHdr& hdr, std::vector<std::byte> payload) {
  const bool local = same_node(hdr.src_rank);
  switch (hdr.kind) {
    case ShmHdr::Kind::Eager:
    case ShmHdr::Kind::Rts:
      deliver_local(UnexMsg{hdr, std::move(payload)});
      break;
    case ShmHdr::Kind::Cts: {
      auto& outs = local ? shm_rdv_out_ : net_rdv_out_;
      auto it = outs.find(hdr.rdv_id);
      NMX_ASSERT_MSG(it != outs.end(), "CTS for unknown rendezvous");
      const RdvOut out = it->second;
      outs.erase(it);
      if (local) {
        ShmHdr data = header_for(out.req, ShmHdr::Kind::Data);
        data.rdv_id = hdr.rdv_id;
        shm_->send(local_of(out.req->peer),
                   nemesis::Message{local_index_, data, nemesis::snapshot(out.buf, out.req->len)});
        complete_send(out.req);  // snapshot taken — buffer reusable
      } else {
        nm_isend(hdr.src_rank, legacy_data_tag(hdr.rdv_id), out.buf, out.req->len,
                 [this, req = out.req](nmad::Request& nr) {
                   complete_send(req);
                   release_later(nr);
                 });
      }
      break;
    }
    case ShmHdr::Kind::Data: {
      // Shared memory only: legacy DATA travels on its own nmad channel.
      auto it = shm_rdv_in_.find({hdr.src_rank, hdr.rdv_id});
      NMX_ASSERT_MSG(it != shm_rdv_in_.end(), "shm DATA without matching grant");
      MpidRequest* req = it->second;
      shm_rdv_in_.erase(it);
      NMX_ASSERT(payload.size() <= req->len);
      if (!payload.empty()) std::memcpy(req->rbuf, payload.data(), payload.size());
      complete_recv(req, hdr.src_rank, hdr.tag, payload.size(), hdr.span);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// progress
// ---------------------------------------------------------------------------

std::optional<mpi::Status> Ch3Process::iprobe(int src, int tag, int context) {
  enter_progress();
  leave_progress();
  // CH3-matched traffic (shared memory, self, legacy network).
  for (const UnexMsg& m : unexpected_) {
    if (m.hdr.context != context) continue;
    if (src != mpi::ANY_SOURCE && src != m.hdr.src_rank) continue;
    if (tag != mpi::ANY_TAG && tag != m.hdr.tag) continue;
    mpi::Status st;
    st.source = m.hdr.src_rank;
    st.tag = m.hdr.tag;
    st.count = m.hdr.len;
    return st;
  }
  // NewMadeleine's buffers (bypass path).
  if (cfg_.bypass) {
    const std::optional<int> src_filter =
        src == mpi::ANY_SOURCE ? std::nullopt : std::optional<int>(src);
    if (auto found = core_->probe(src_filter, selector_for(context, tag))) {
      mpi::Status st;
      st.source = found->src;
      st.tag = unpack_user_tag(found->tag);
      st.count = found->len;
      return st;
    }
  }
  return std::nullopt;
}

mpi::TxRequest* Ch3Process::nic_coll(std::uint64_t coll_id, int parent,
                                     const std::vector<int>& children, int op, double* inout) {
  MpidRequest* req = new_request(MpidRequest::Kind::Recv);
  req->peer = parent;
  req->len = sizeof(double);
  core_->nic_coll_post(coll_id, parent, children, *inout, op, [req, inout](double result) {
    *inout = result;
    req->status.count = sizeof(double);
    req->complete_and_wake();
  });
  return req;
}

void Ch3Process::enter_progress() {
  ++depth_;
  if (depth_ == 1) {
    core_->enter_progress();
  } else {
    core_->progress();
  }
  if (shm_) shm_->poll(local_index_);
  if (cfg_.bypass) as_probe_all();
}

void Ch3Process::leave_progress() {
  NMX_ASSERT(depth_ > 0);
  if (--depth_ == 0) core_->leave_progress();
}

}  // namespace nmx::ch3
