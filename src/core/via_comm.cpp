#include "via_comm.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "check/via_checker.hpp"
#include "osnode/node.hpp"
#include "util/logging.hpp"

namespace press::core {

using osnode::CatIntraComm;
using via::Address;
using via::MemoryRegion;

namespace {

/** Bytes reserved per control-ring slot (message + sequence number). */
constexpr std::uint64_t SlotBytes = 128;

/** Extra pre-posted receive descriptors for ungated (flow) traffic. */
constexpr int FlowReserve = 8;

} // namespace

/** Per-peer connection state. */
struct ViaComm::Peer {
    int id = -1;
    via::VirtualInterface *vi = nullptr;

    // ---- sender side: credits for the peer's receive resources ----
    /** One window per FlowChannel. */
    std::array<CreditGate, static_cast<int>(FlowChannel::NumChannels)>
        gates;
    std::uint64_t forwardSeq = 0;
    std::uint64_t cachingSeq = 0;
    std::uint64_t fileSeq = 0;

    // Remote bases (peer's address space) this node writes to.
    Address rForwardRing = 0;
    Address rCachingRing = 0;
    Address rFileMetaRing = 0;
    Address rFileDataRing = 0;
    Address rFlowWords = 0;
    Address rLoadWord = 0;

    // ---- receiver side: local regions this peer writes into ----
    MemoryRegion forwardRing;
    MemoryRegion cachingRing;
    MemoryRegion fileMetaRing;
    MemoryRegion fileDataRing;
    MemoryRegion flowWords;
    MemoryRegion loadWord;
    MemoryRegion recvBufs; ///< backing for pre-posted recv descriptors
    MemoryRegion staging;  ///< send-side bounce buffers toward the peer

    // Credit batching back to the peer for what we consumed.
    std::unique_ptr<CreditReturner> regularReturn;
    std::unique_ptr<CreditReturner> forwardReturn;
    std::unique_ptr<CreditReturner> cachingReturn;
    std::unique_ptr<CreditReturner> fileReturn;

    Peer(int id_, int window)
        : id(id_),
          gates{CreditGate(window), CreditGate(window), CreditGate(window),
                CreditGate(window)}
    {
    }

    CreditGate &
    gate(FlowChannel channel)
    {
        auto c = static_cast<std::size_t>(channel);
        PRESS_ASSERT(c < gates.size(), "bad flow channel");
        return gates[c];
    }
};

ViaComm::ViaComm(sim::Simulator &sim, int node, const PressConfig &config,
                 sim::FifoResource &cpu, net::Fabric &fabric,
                 check::ViaChecker *checker)
    : _node(node),
      _config(config),
      _cal(_config.calibration),
      _cpu(cpu),
      _nic(std::make_unique<via::ViaNic>(sim, fabric, node)),
      _maxTransfer(LargeFileCutoff)
{
    // A receive thread exists whenever some message type still travels
    // as a regular two-sided send (Section 3.4: "this version does not
    // require a receive thread" only from V3 on, with piggy-backing).
    // Explicit load messages are regular sends unless they use the RMW
    // load word, which only broadcasts can: gossip and tree rumors (and
    // their multi-rumor digests) always travel as regular sends.
    Dissemination::Kind kind = _config.dissemination.kind;
    bool explicit_loads = kind == Dissemination::Kind::Broadcast ||
                          kind == Dissemination::Kind::Gossip ||
                          kind == Dissemination::Kind::Tree;
    _recvThreadNeeded = !usesRmw(MsgKind::File) ||
                        (explicit_loads && !_config.dissemination.useRmw);

    int nodes = _config.nodes;

    // The receive CQ can never legally hold more completions than the
    // receive descriptors this node pre-posts, so advertise exactly that
    // capacity and let the checker police it. Send completions are only
    // bounded per VI (ungated credit-word writes share the queue), so
    // the send CQ stays unbounded.
    std::size_t recv_capacity = 0;
    if (_recvThreadNeeded && nodes > 1)
        recv_capacity = static_cast<std::size_t>(nodes - 1) *
                        (_config.flowWindow + FlowReserve);
    _recvCq = std::make_unique<via::CompletionQueue>(sim, recv_capacity);
    _sendCq = std::make_unique<via::CompletionQueue>(sim);

    if (checker) {
        checker->attachNic(*_nic);
        checker->attachCq(*_recvCq, _node);
        checker->attachCq(*_sendCq, _node);
    }
    const int window = _config.flowWindow;
    // Credits go back half a window at a time: a batch that outgrew
    // its window would never fill, and the sender would stall for good.
    const int batch = std::max(1, window / 2);
    _peers.resize(nodes);
    for (int j = 0; j < nodes; ++j) {
        if (j == _node)
            continue;
        auto peer = std::make_unique<Peer>(j, window);
        Peer *p = peer.get();
        int from = j;

        if (checker) {
            static constexpr const char *Names[] = {"regular", "forward",
                                                    "caching", "file"};
            for (std::size_t c = 0; c < p->gates.size(); ++c)
                p->gates[c].setObserver(checker->creditHook(
                    _node, Names[c] + ("->" + std::to_string(j))));
        }

        // Receive-side regions, with write hooks feeding the poll paths.
        p->forwardRing = _nic->registerMemory(
            window * SlotBytes,
            [this, from](std::uint64_t, std::uint64_t,
                         const via::Payload &pl) {
                consumeRmwControl(from, pl);
            });
        p->cachingRing = _nic->registerMemory(
            window * SlotBytes,
            [this, from](std::uint64_t, std::uint64_t,
                         const via::Payload &pl) {
                consumeRmwControl(from, pl);
            });
        p->fileMetaRing = _nic->registerMemory(
            window * SlotBytes,
            [this, from](std::uint64_t, std::uint64_t,
                         const via::Payload &pl) {
                consumeRmwFile(from, pl);
            });
        // File data lands silently; the metadata write triggers
        // consumption (it is posted after the data on the same VI, so
        // VIA's in-order delivery guarantees the data is already there).
        p->fileDataRing = _nic->registerMemory(
            std::max<std::uint64_t>(window * _maxTransfer, 1));
        p->flowWords = _nic->registerMemory(
            static_cast<int>(FlowChannel::NumChannels) * 8,
            [this, from](std::uint64_t, std::uint64_t,
                         const via::Payload &pl) {
                const auto *w = net::payloadAs<WireMsg>(pl);
                PRESS_ASSERT(w, "bad flow-word payload");
                const auto *flow = std::get_if<FlowMsg>(&w->body);
                PRESS_ASSERT(flow, "flow word without FlowMsg");
                creditArrived(from, *flow);
            });
        p->loadWord = _nic->registerMemory(
            8, [this, from](std::uint64_t, std::uint64_t,
                            const via::Payload &pl) {
                // The main thread notices the overwritten word on its
                // next poll; only the probe costs CPU.
                _cpu.submit(_cal.via.pollProbe, CatIntraComm,
                            [this, pl]() {
                                const auto *w =
                                    net::payloadAs<WireMsg>(pl);
                                PRESS_ASSERT(w, "bad load-word payload");
                                deliver(toIncoming(*w, pl));
                            });
            });
        p->recvBufs = _nic->registerMemory(
            (window + FlowReserve) * (_maxTransfer + 64));
        p->staging = _nic->registerMemory(
            std::max<std::uint64_t>(2 * window * _maxTransfer, 1));

        // Credit returners toward this peer.
        p->regularReturn = std::make_unique<CreditReturner>(
            batch, [this, from](int n) {
                send(from, FlowMsg{n, FlowChannel::Regular});
            });
        p->forwardReturn = std::make_unique<CreditReturner>(
            batch, [this, from](int n) {
                send(from, FlowMsg{n, FlowChannel::Forward});
            });
        p->cachingReturn = std::make_unique<CreditReturner>(
            batch, [this, from](int n) {
                send(from, FlowMsg{n, FlowChannel::Caching});
            });
        // RMW file-ring slots are acknowledged one by one (the slot
        // word is the acknowledgement), matching Table 4's near-1:1
        // Flow:File ratio in V3-V5; the regular path batches.
        p->fileReturn = std::make_unique<CreditReturner>(
            usesRmw(MsgKind::File) ? 1 : batch, [this, from](int n) {
                send(from, FlowMsg{n, FlowChannel::File});
            });

        _peers[j] = std::move(peer);
    }
}

ViaComm::~ViaComm() = default;

void
ViaComm::linkMesh(std::vector<std::unique_ptr<ViaComm>> &comms)
{
    int n = static_cast<int>(comms.size());
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            ViaComm &a = *comms[i];
            ViaComm &b = *comms[j];
            via::VirtualInterface *va =
                a._nic->createVi(a._sendCq.get(), a._recvCq.get());
            via::VirtualInterface *vb =
                b._nic->createVi(b._sendCq.get(), b._recvCq.get());
            via::ViaNic::connect(*va, *vb);
            a._peers[j]->vi = va;
            b._peers[i]->vi = vb;

            // Exchange ring addresses (connection-setup time, free).
            auto wire = [](Peer &mine, const Peer &theirs) {
                mine.rForwardRing = theirs.forwardRing.base;
                mine.rCachingRing = theirs.cachingRing.base;
                mine.rFileMetaRing = theirs.fileMetaRing.base;
                mine.rFileDataRing = theirs.fileDataRing.base;
                mine.rFlowWords = theirs.flowWords.base;
                mine.rLoadWord = theirs.loadWord.base;
            };
            wire(*a._peers[j], *b._peers[i]);
            wire(*b._peers[i], *a._peers[j]);

            // Pre-post receive descriptors for regular traffic.
            int prepost = 0;
            if (comms[i]->_recvThreadNeeded)
                prepost = comms[i]->_config.flowWindow + FlowReserve;
            for (int k = 0; k < prepost; ++k) {
                va->postRecv(via::makeRecv(a._peers[j]->recvBufs.base,
                                           a._maxTransfer + 64));
                vb->postRecv(via::makeRecv(b._peers[i]->recvBufs.base,
                                           b._maxTransfer + 64));
            }
        }
    }
    for (auto &c : comms)
        if (c->_recvThreadNeeded)
            c->armRecvThread();
}

bool
ViaComm::usesRmw(MsgKind kind) const
{
    int v = static_cast<int>(_config.version);
    switch (kind) {
      case MsgKind::Flow:
        return v >= 1;
      case MsgKind::Forward:
      case MsgKind::Caching:
      case MsgKind::Membership: // rides the caching channel
        return v >= 2;
      case MsgKind::File:
        return v >= 3;
      case MsgKind::Load:
        return _config.dissemination.useRmw;
      default:
        return false;
    }
}

sim::Tick
ViaComm::copyCost(std::uint64_t bytes) const
{
    return sim::transferTimeNs(bytes, _cal.via.copyBandwidth);
}

sim::Tick
ViaComm::cacheInsertCost(std::uint64_t bytes) const
{
    if (_config.version != Version::V5)
        return 0;
    return _nic->registrationCost(bytes);
}

sim::Tick
ViaComm::cacheEvictCost(std::uint64_t bytes) const
{
    if (_config.version != Version::V5)
        return 0;
    return _nic->registrationCost(bytes) / 2;
}

sim::Tick
ViaComm::perRequestOverhead() const
{
    if (static_cast<int>(_config.version) < 2)
        return 0;
    return _cal.via.pollProbe * (_config.nodes - 1);
}

// ---------------------------------------------------------------------
// Send paths
// ---------------------------------------------------------------------

void
ViaComm::send(int dst, WireBody body)
{
    PRESS_ASSERT(dst >= 0 && dst < _config.nodes && dst != _node,
                 "bad destination ", dst);
    if (!peerReachable(dst)) {
        countDroppedSend();
        return;
    }
    Peer &peer = *_peers[static_cast<std::size_t>(dst)];
    WireMsg w{_node, piggyLoad(), std::move(body)};
    MsgKind kind = kindOf(w.body);
    bool rmw = usesRmw(kind);

    if (rmw && (kind == MsgKind::Flow || kind == MsgKind::Load)) {
        // Word: one overwritable remote word, with no credit and no
        // piggy-back. Credits land in their channel's word.
        w.piggyLoad = -1;
        Address word = peer.rLoadWord;
        std::uint64_t bytes = _cal.sizes.flowRmw;
        if (const auto *flow = std::get_if<FlowMsg>(&w.body)) {
            word = peer.rFlowWords + static_cast<int>(flow->channel) * 8;
        } else {
            // Rumors about different origins would clobber each other.
            const auto *load = std::get_if<LoadMsg>(&w.body);
            PRESS_ASSERT(load && load->origin < 0,
                         "gossip/tree load rumors cannot use the RMW "
                         "load word");
            bytes = logicalBytes(w, _cal.sizes);
        }
        recordSend(kind, bytes);
        post(peer, Ungated, _cal.via.rmwSendWord,
             Post{word, _cal.sizes.flowRmw}, std::move(w));
        return;
    }

    if (rmw && kind == MsgKind::File) {
        // Two-record file: data into the large ring, then metadata into
        // the small one. Both count as File traffic, which is what
        // doubles the File message count in Table 4.
        std::uint64_t data = std::get<FileMsg>(w.body).bytes;
        std::uint64_t meta =
            _cal.sizes.fileMeta + (w.piggyLoad >= 0 ? PiggyBackBytes : 0);
        recordSend(kind, data);
        recordSend(kind, meta);
        std::uint64_t slot = peer.fileSeq++ % _config.flowWindow;
        bool zero_copy_tx = _config.version == Version::V5;
        post(peer, FlowChannel::File,
             2 * _cal.via.rmwSend + (zero_copy_tx ? 0 : copyCost(data)),
             Post{peer.rFileMetaRing + slot * SlotBytes, meta,
                  peer.rFileDataRing + slot * _maxTransfer, data},
             std::move(w));
        return;
    }

    std::uint64_t bytes = logicalBytes(w, _cal.sizes);
    recordSend(kind, bytes);

    if (rmw && bytes <= SlotBytes) {
        // Ring: the record goes into the peer's forward or caching ring
        // slot. A caching digest that outgrows a slot travels as a
        // regular send instead.
        bool fwd = kind == MsgKind::Forward;
        std::uint64_t &seq = fwd ? peer.forwardSeq : peer.cachingSeq;
        Address ring = fwd ? peer.rForwardRing : peer.rCachingRing;
        Address slot = ring + (seq++ % _config.flowWindow) * SlotBytes;
        post(peer, fwd ? FlowChannel::Forward : FlowChannel::Caching,
             _cal.via.rmwSend + copyCost(bytes),
             Post{slot, bytes}, std::move(w));
        return;
    }

    // Regular send. Flow messages travel ungated, on the receive
    // descriptors reserved for them.
    post(peer, kind == MsgKind::Flow ? Ungated : FlowChannel::Regular,
         _cal.via.regularSend + copyCost(bytes),
         Post{NoAddress, bytes}, std::move(w));
}

void
ViaComm::post(Peer &peer, FlowChannel channel, sim::Tick cpu, Post rec,
              WireMsg w)
{
    auto thunk = [this, &peer, cpu, rec,
                  payload = net::makePayload<WireMsg>(std::move(w))]() {
        _cpu.submit(cpu, CatIntraComm, [this, &peer, rec, payload]() {
            drainSendCq();
            if (!peerReachable(peer.id)) {
                countDroppedSend();
                return;
            }
            // File data first, then the record that publishes it; the
            // same VI delivers them in order.
            bool ok = true;
            if (rec.dataAt != NoAddress)
                ok = peer.vi->postSend(via::makeRdmaWrite(
                    peer.staging.base, rec.dataBytes, rec.dataAt));
            ok = peer.vi->postSend(
                     rec.at == NoAddress
                         ? via::makeSend(peer.staging.base, rec.bytes,
                                         payload)
                         : via::makeRdmaWrite(peer.staging.base,
                                              rec.bytes, rec.at,
                                              payload)) &&
                 ok;
            PRESS_ASSERT(ok, "VIA post overflow despite flow control");
        });
    };
    if (channel == Ungated) {
        thunk();
    } else if (!peer.gate(channel).acquire(std::move(thunk))) {
        // The peer's window is empty: the send waits for a credit.
        ++_tx.stalls;
        PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommStall, 0,
                            static_cast<std::uint64_t>(channel));
    }
}

// ---------------------------------------------------------------------
// Receive paths
// ---------------------------------------------------------------------

void
ViaComm::armRecvThread()
{
    _recvCq->notify([this]() {
        // The blocked receive thread is woken: one context switch.
        _cpu.submit(_nic->costs().cqWakeup, CatIntraComm,
                    [this]() { drainRecvCq(); });
    });
}

void
ViaComm::drainRecvCq()
{
    bool any = false;
    while (auto c = _recvCq->poll()) {
        any = true;
        processRegular(std::move(c->desc), c->vi);
    }
    if (!any) {
        armRecvThread();
        return;
    }
    // Stay "awake": once the queued CPU work retires, look again without
    // paying another wake-up.
    _cpu.submit(0, CatIntraComm, [this]() { drainRecvCq(); });
}

void
ViaComm::processRegular(via::DescriptorPtr desc,
                        via::VirtualInterface *vi)
{
    if (desc->status != via::Status::Complete) {
        // A connection teardown drained this pre-posted buffer; drop
        // it. The descriptor is re-posted when the peer end revives.
        PRESS_ASSERT(desc->status == via::Status::ErrorFlushed,
                     "regular receive failed: flow control must "
                     "prevent overruns (status ",
                     static_cast<int>(desc->status), ")");
        countRxError();
        return;
    }

    // The sender is the node at the far end of the VI.
    const int from = vi->peer()->node();
    PRESS_ASSERT(_peers[from]->vi == vi, "completion from unknown VI");
    Peer &peer = *_peers[from];

    net::Payload payload = desc->payload;
    const auto *w = net::payloadAs<WireMsg>(payload);
    PRESS_ASSERT(w, "foreign payload on PRESS VI");
    MsgKind kind = kindOf(w->body);
    std::uint64_t bytes = desc->bytesDone;
    PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommRecv, 0,
                        obs::packKindBytes(static_cast<int>(kind), bytes));

    // Replenish the descriptor immediately (NIC-side, free) so ungated
    // flow traffic never overruns.
    desc->status = via::Status::Pending;
    desc->payload.reset();
    vi->postRecv(std::move(desc));

    // Receive-thread CPU work: wake-path share + digest copy, plus the
    // unavoidable big copy when the payload is a file (V0-V2).
    sim::Tick cost = _cal.via.regularRecv + _nic->costs().recvPost;
    if (kind == MsgKind::File)
        cost += copyCost(bytes);
    else
        cost += copyCost(std::min<std::uint64_t>(bytes, SlotBytes));

    _cpu.submit(cost, CatIntraComm, [this, &peer, kind, payload]() {
        const auto *wm = net::payloadAs<WireMsg>(payload);
        if (kind == MsgKind::Flow) {
            const auto *flow = std::get_if<FlowMsg>(&wm->body);
            PRESS_ASSERT(flow, "Flow message without FlowMsg body");
            creditArrived(peer.id, *flow);
        }
        deliver(toIncoming(*wm, payload));
        // Gated kinds consumed a descriptor credit; batch it back.
        if (kind != MsgKind::Flow)
            peer.regularReturn->consumed();
    });
}

void
ViaComm::consumeRmwControl(int from, const net::Payload &payload)
{
    Peer &peer = *_peers.at(from);
    // Poll hit at the end of the main loop; consume + return the slot.
    _cpu.submit(_cal.via.rmwRecvControl, CatIntraComm,
                [this, &peer, payload]() {
                    const auto *w = net::payloadAs<WireMsg>(payload);
                    PRESS_ASSERT(w, "bad ring payload");
                    MsgKind kind = kindOf(w->body);
                    PRESS_TRACE_INSTANT(
                        _tracer, _traceNode, obs::Ev::CommRmwWrite, 0,
                        obs::packKindBytes(static_cast<int>(kind), 0));
                    deliver(toIncoming(*w, payload));
                    if (kind == MsgKind::Forward)
                        peer.forwardReturn->consumed();
                    else
                        peer.cachingReturn->consumed();
                });
}

void
ViaComm::consumeRmwFile(int from, const net::Payload &payload)
{
    Peer &peer = *_peers.at(from);
    const auto *w = net::payloadAs<WireMsg>(payload);
    PRESS_ASSERT(w, "bad file-meta payload");
    const auto *file = std::get_if<FileMsg>(&w->body);
    PRESS_ASSERT(file, "file metadata without FileMsg body");

    bool zero_copy_rx = static_cast<int>(_config.version) >= 4;
    PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommRmwWrite, 0,
                        obs::packKindBytes(
                            static_cast<int>(MsgKind::File), file->bytes));
    sim::Tick cost = _cal.via.rmwRecvFile +
                     (zero_copy_rx ? 0 : copyCost(file->bytes));

    _cpu.submit(cost, CatIntraComm,
                [this, &peer, payload, zero_copy_rx]() {
                    const auto *wm = net::payloadAs<WireMsg>(payload);
                    deliver(toIncoming(*wm, payload));
                    if (!zero_copy_rx) {
                        // V3: the copy freed the ring slot already.
                        peer.fileReturn->consumed();
                    }
                    // V4/V5: the slot stays busy until fileBufferDone().
                });
}

void
ViaComm::fileBufferDone(int from)
{
    if (static_cast<int>(_config.version) < 4)
        return; // slot was released when the receive copy finished
    _peers.at(from)->fileReturn->consumed();
}

void
ViaComm::creditArrived(int from, const FlowMsg &flow)
{
    Peer &peer = *_peers.at(from);
    PRESS_TRACE_INSTANT(
        _tracer, _traceNode, obs::Ev::CommCredit, 0,
        obs::packKindBytes(static_cast<int>(flow.channel),
                           static_cast<std::uint64_t>(flow.credits)));
    peer.gate(flow.channel).release(flow.credits);
}

void
ViaComm::drainSendCq()
{
    while (auto c = _sendCq->poll()) {
        if (c->desc->status == via::Status::Complete)
            continue;
        // A send racing a connection teardown errors back instead of
        // arriving; the message is lost with the peer.
        PRESS_ASSERT(c->desc->status == via::Status::ErrorDisconnected ||
                         c->desc->status == via::Status::ErrorFlushed,
                     "intra-cluster send failed with status ",
                     static_cast<int>(c->desc->status));
        countDroppedSend();
    }
}

// ---------------------------------------------------------------------
// Fault transitions
// ---------------------------------------------------------------------

void
ViaComm::resetPeerFlow(Peer &peer)
{
    for (auto &gate : peer.gates)
        gate.reset();
    peer.regularReturn->reset();
    peer.forwardReturn->reset();
    peer.cachingReturn->reset();
    peer.fileReturn->reset();
    peer.forwardSeq = 0;
    peer.cachingSeq = 0;
    peer.fileSeq = 0;
}

void
ViaComm::repostRecvs(Peer &peer)
{
    if (!_recvThreadNeeded)
        return;
    int prepost = _config.flowWindow + FlowReserve;
    for (int k = 0; k < prepost; ++k) {
        bool ok = peer.vi->postRecv(
            via::makeRecv(peer.recvBufs.base, _maxTransfer + 64));
        PRESS_ASSERT(ok, "recv queue overflow on reconnect");
    }
}

void
ViaComm::peerDown(int peer_id)
{
    ClusterComm::peerDown(peer_id);
    Peer *p = _peers.at(peer_id).get();
    if (!p || !p->vi || p->vi->broken())
        return;
    // Tear down this end only: posted receive buffers drain with
    // ErrorFlushed (drainRecvCq drops them), queued sends are
    // discarded, windows restore for the eventual reconnect.
    p->vi->breakLocal();
    resetPeerFlow(*p);
}

void
ViaComm::peerUp(int peer_id)
{
    ClusterComm::peerUp(peer_id);
    Peer *p = _peers.at(peer_id).get();
    if (!p || !p->vi || !p->vi->broken())
        return;
    p->vi->revive();
    resetPeerFlow(*p);
    repostRecvs(*p);
}

void
ViaComm::selfDown()
{
    ClusterComm::selfDown();
    for (auto &p : _peers) {
        if (!p || !p->vi || p->vi->broken())
            continue;
        p->vi->breakLocal();
        resetPeerFlow(*p);
    }
}

void
ViaComm::selfUp()
{
    ClusterComm::selfUp();
    for (auto &p : _peers) {
        if (!p || !p->vi || !p->vi->broken())
            continue;
        p->vi->revive();
        resetPeerFlow(*p);
        repostRecvs(*p);
    }
}

} // namespace press::core
