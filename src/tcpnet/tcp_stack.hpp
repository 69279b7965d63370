/**
 * @file
 * Kernel TCP stack cost model.
 *
 * The paper's baseline intra-cluster transport is Linux TCP (over Fast
 * Ethernet or over the cLAN, still running the complete stack). What
 * matters to the server's throughput is (a) the fixed per-message kernel
 * path cost on each side (system call, softirq, socket handling), (b) the
 * per-byte cost (copy between user and kernel plus checksum), (c) the
 * per-segment cost (MTU-sized segmentation), and (d) socket-buffer flow
 * control. All four are modelled; segmentation is charged analytically
 * (per-segment CPU and header bytes) rather than as separate wire events,
 * which keeps event counts — and host run time — proportional to
 * application messages.
 *
 * Calibration (see TcpCosts::defaults): a 4-byte one-way message costs
 * ~86 us over FE and ~67 us over cLAN (paper measures 82/76), and the
 * streamed bandwidth for 32 KB messages is wire-limited to ~11.5 MB/s on
 * FE and CPU-limited to ~32 MB/s on cLAN, matching Section 3.2.
 */

#ifndef PRESS_TCPNET_TCP_STACK_HPP
#define PRESS_TCPNET_TCP_STACK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/payload.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/ring_queue.hpp"

namespace press::tcpnet {

/** Kernel-path cost parameters. */
struct TcpCosts {
    sim::Tick sendFixed = 0;   ///< per-message send-side kernel path, ns
    sim::Tick recvFixed = 0;   ///< per-message recv-side kernel path, ns
    double sendPerByte = 0;    ///< ns per byte (copy + checksum), send
    double recvPerByte = 0;    ///< ns per byte, receive
    sim::Tick perSegment = 0;  ///< extra CPU per MTU segment, each side
    std::uint32_t mss = 1460;  ///< max segment size, bytes
    std::uint64_t headerBytes = 58; ///< TCP+IP+Ethernet framing/segment

    /** Linux-2.2-era costs on a 300 MHz P-II over Fast Ethernet
     *  (1460-byte MSS; see file comment). */
    static TcpCosts defaults();

    /**
     * The same stack over the cLAN: identical per-message and per-byte
     * kernel costs, but the cLAN's large native MTU means far fewer
     * per-frame interrupt/softirq passes for multi-KB messages — the
     * main reason the paper measures 32 MB/s instead of 11.5 MB/s.
     */
    static TcpCosts clan();

    /** Send-side CPU time for a message of @p bytes. */
    sim::Tick sendCpu(std::uint64_t bytes) const;

    /** Receive-side CPU time for a message of @p bytes. */
    sim::Tick recvCpu(std::uint64_t bytes) const;

    /** Segments a message of @p bytes occupies. */
    std::uint64_t segments(std::uint64_t bytes) const;

    /** Bytes on the wire including per-segment framing. */
    std::uint64_t wireBytes(std::uint64_t bytes) const;
};

/** Per-stack statistics. */
struct TcpStats {
    std::uint64_t messagesSent = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t sendsBlocked = 0; ///< sends that waited on the sockbuf
};

class TcpStack;

/** Application handler for arriving messages. */
using TcpReceiveFn =
    std::function<void(std::uint64_t bytes, const net::Payload &payload)>;

/**
 * One direction-pair of a connected socket. Obtained from
 * TcpStack::connect; lives as long as both stacks.
 */
class TcpChannel
{
  public:
    /**
     * Queue @p bytes for transmission. Delivery order is FIFO. When the
     * in-flight window (socket buffer) is full the message waits at the
     * sender.
     */
    void send(std::uint64_t bytes, net::Payload payload = {});

    /** Install the receive upcall (replaces any previous one). */
    void onReceive(TcpReceiveFn handler);

    /** Bytes accepted into the window and not yet consumed remotely. */
    std::uint64_t inFlight() const { return _inFlight; }

    /** Messages waiting for window space at the sender. */
    std::size_t backlog() const { return _pending.size(); }

  private:
    friend class TcpStack;

    TcpChannel(TcpStack &local, TcpStack &remote, std::uint64_t sockbuf);

    struct PendingSend {
        std::uint64_t bytes = 0;
        net::Payload payload;
    };

    void trySend();
    void deliver(std::uint64_t bytes, net::Payload payload);
    void consumed(std::uint64_t bytes);

    TcpStack &_local;
    TcpStack &_remote;
    std::uint64_t _sockbuf;
    std::uint64_t _inFlight = 0;
    util::RingQueue<PendingSend> _pending;
    TcpReceiveFn _handler;
};

/**
 * Per-node TCP stack: owns the node's channels and charges kernel work to
 * the node's CPU resource under a fixed accounting category.
 */
class TcpStack
{
  public:
    /**
     * @param sim           simulator
     * @param fabric        network the stack transmits on
     * @param node          this stack's fabric port
     * @param cpu           CPU resource kernel work is charged to
     * @param cpu_category  accounting category for that work
     * @param costs         kernel path costs
     */
    TcpStack(sim::Simulator &sim, net::Fabric &fabric, net::NodeId node,
             sim::FifoResource &cpu, int cpu_category,
             TcpCosts costs = TcpCosts::defaults());

    TcpStack(const TcpStack &) = delete;
    TcpStack &operator=(const TcpStack &) = delete;

    /**
     * Create a connected channel pair between two stacks.
     *
     * @param sockbuf  per-direction in-flight byte limit
     * @return the two endpoints: first sends a->b, second sends b->a
     */
    static std::pair<TcpChannel *, TcpChannel *>
    connect(TcpStack &a, TcpStack &b, std::uint64_t sockbuf = 64 * 1024);

    const TcpCosts &costs() const { return _costs; }
    const TcpStats &stats() const { return _stats; }
    net::NodeId node() const { return _node; }
    sim::Simulator &sim() { return _sim; }

  private:
    friend class TcpChannel;

    sim::Simulator &_sim;
    net::Fabric &_fabric;
    net::NodeId _node;
    sim::FifoResource &_cpu;
    int _cpuCategory;
    TcpCosts _costs;
    TcpStats _stats;
    std::vector<std::unique_ptr<TcpChannel>> _channels;
};

} // namespace press::tcpnet

#endif // PRESS_TCPNET_TCP_STACK_HPP
