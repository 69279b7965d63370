/**
 * @file
 * VIA backend of the intra-cluster comm layer: PRESS versions V0-V5.
 *
 * Table 3 of the paper, reproduced here, is the specification this class
 * implements (reg = regular two-sided message, rmw = remote memory
 * write, 0-cp = zero-copy):
 *
 *   Message   V0    V1    V2    V3    V4          V5
 *   Flow      reg   rmw   rmw   rmw   rmw         rmw
 *   Forward   reg   reg   rmw   rmw   rmw         rmw
 *   Caching   reg   reg   rmw   rmw   rmw         rmw
 *   File      reg   reg   reg   rmw   rmw+0cp RX  rmw+0cp TX and RX
 *
 * Mechanisms, mirroring Section 3.4:
 *  - Regular messages flow through connected VIs with pre-posted receive
 *    descriptors; a receive thread blocks on a completion queue, wakes on
 *    arrival (context-switch cost), copies a digest to the structure
 *    shared with the main thread, and reposts the descriptor. Credits
 *    (one per descriptor) return in batched Flow messages.
 *  - RMW control messages land in per-sender circular buffers (forward
 *    and caching rings); the main thread polls sequence numbers at the
 *    end of its loop. Ring slots are flow-controlled; credits return as
 *    single-word remote writes that may be overwritten freely.
 *  - RMW file transfers take *two* messages (data into the large ring,
 *    then metadata into the small ring) — the very property that makes
 *    V3 barely faster than V2 in the paper.
 *  - V4 replies to the client straight out of the large ring, so the
 *    receive-side copy disappears but the ring slot stays busy until the
 *    reply is on the wire (fileBufferDone()).
 *  - V5 additionally registers all cache pages with VIA, eliminating the
 *    send-side copy at the price of registration work on cache inserts.
 */

#ifndef PRESS_CORE_VIA_COMM_HPP
#define PRESS_CORE_VIA_COMM_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/calibration.hpp"
#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/credit_gate.hpp"
#include "core/wire.hpp"
#include "sim/resource.hpp"
#include "via/via_nic.hpp"

namespace press::check {
class ViaChecker;
}

namespace press::core {

/** One node's VIA intra-cluster endpoint. */
class ViaComm : public ClusterComm
{
  public:
    /**
     * @param sim      simulator
     * @param node     this node's id (== its internal-fabric port)
     * @param config   cluster configuration (version, flow window, ...)
     * @param cpu      node CPU for charging comm work
     * @param fabric   the internal network (cLAN)
     * @param checker  cluster-wide invariant checker to attach to this
     *                 node's NIC, CQs and credit gates; null when
     *                 checking is off.
     */
    ViaComm(sim::Simulator &sim, int node, const PressConfig &config,
            sim::FifoResource &cpu, net::Fabric &fabric,
            check::ViaChecker *checker);

    ~ViaComm() override;

    /** Create VIs, connect the mesh, and exchange ring addresses. Call
     *  once after constructing every ViaComm. */
    static void linkMesh(std::vector<std::unique_ptr<ViaComm>> &comms);

    /**
     * Table 3 as one decision on the kind, feeding post():
     *  - word: flow credits, and loads when dissemination.useRmw;
     *  - two-record file: V3 and later;
     *  - ring: forward, caching and membership (on the caching channel)
     *    when the version puts the channel on RMW and the record fits
     *    one slot;
     *  - regular send: everything else.
     */
    void send(int dst, WireBody body) override;
    void fileBufferDone(int from) override;

    // Fault transitions (see ClusterComm): VI teardown/revival plus
    // flow-control window resets.
    void peerDown(int peer) override;
    void peerUp(int peer) override;
    void selfDown() override;
    void selfUp() override;

    sim::Tick cacheInsertCost(std::uint64_t bytes) const override;
    sim::Tick cacheEvictCost(std::uint64_t bytes) const override;

    /**
     * Main-loop polling overhead per request when RMW rings are active
     * (one sequence-number probe per peer); grows with the cluster size,
     * as Section 2.2 warns.
     */
    sim::Tick perRequestOverhead() const override;

  private:
    struct Peer;

    /** Post target of a regular send, and of an absent data record. */
    static constexpr via::Address NoAddress = ~via::Address{0};

    /** post()'s channel for traffic no credit window guards: flow
     *  messages and remote words. */
    static constexpr FlowChannel Ungated = FlowChannel::NumChannels;

    /**
     * What one post writes: an optional file-data record, then the
     * message record, a remote write at `at` or a regular send when
     * `at` is NoAddress.
     */
    struct Post {
        via::Address at;
        std::uint64_t bytes;
        via::Address dataAt = NoAddress;
        std::uint64_t dataBytes = 0;
    };

    /** True when @p kind travels as a remote memory write under the
     *  configured version (Table 3). */
    bool usesRmw(MsgKind kind) const;

    /**
     * The one post routine: wait for a credit on @p channel's window
     * (none when Ungated), charge @p cpu, then, if the peer is still
     * reachable, post @p rec on its VI. A send that finds the window
     * empty counts one stall.
     */
    void post(Peer &peer, FlowChannel channel, sim::Tick cpu, Post rec,
              WireMsg w);

    /** Receive-thread drain loop for regular messages. */
    void armRecvThread();
    void drainRecvCq();

    /** Reap completed send descriptors (bookkeeping only). */
    void drainSendCq();

    /** Consume an RMW arrival after the poll finds it. */
    void consumeRmwControl(int from, const net::Payload &payload);
    void consumeRmwFile(int from, const net::Payload &payload);

    /** Process a regular-message completion. */
    void processRegular(via::DescriptorPtr desc, via::VirtualInterface *vi);

    /** A credit word or Flow message arrived from @p from. */
    void creditArrived(int from, const FlowMsg &flow);

    /** Discard queued sends toward @p peer and restore full windows
     *  (connection teardown / re-establishment). */
    void resetPeerFlow(Peer &peer);

    /** Re-post the pre-posted receive descriptors toward @p peer. */
    void repostRecvs(Peer &peer);

    sim::Tick copyCost(std::uint64_t bytes) const;

    int _node;
    PressConfig _config;
    const Calibration &_cal;
    sim::FifoResource &_cpu;
    std::unique_ptr<via::ViaNic> _nic;
    std::unique_ptr<via::CompletionQueue> _recvCq;
    std::unique_ptr<via::CompletionQueue> _sendCq;
    std::vector<std::unique_ptr<Peer>> _peers; ///< indexed by node id
    bool _recvThreadNeeded = false;
    std::uint64_t _maxTransfer;
};

} // namespace press::core

#endif // PRESS_CORE_VIA_COMM_HPP
