#include "tcp_stack.hpp"

#include "util/logging.hpp"
#include "util/units.hpp"

namespace press::tcpnet {

using util::US;

TcpCosts
TcpCosts::defaults()
{
    TcpCosts c;
    c.sendFixed = 18 * US; // syscall + socket + qdisc path
    c.recvFixed = 20 * US; // socket wake-up + protocol demux
    c.sendPerByte = 28.0;  // copy-from-user + checksum on a 300 MHz P-II
    c.recvPerByte = 28.0;  // copy-to-user + checksum
    c.perSegment = 10 * US; // interrupt + softirq pass per frame
    c.mss = 1460;
    c.headerBytes = 58;
    return c;
}

TcpCosts
TcpCosts::clan()
{
    TcpCosts c = defaults();
    c.mss = 16384; // large native MTU: few frames per message
    return c;
}

sim::Tick
TcpCosts::sendCpu(std::uint64_t bytes) const
{
    return sendFixed +
           static_cast<sim::Tick>(sendPerByte * static_cast<double>(bytes)) +
           static_cast<sim::Tick>(segments(bytes)) * perSegment;
}

sim::Tick
TcpCosts::recvCpu(std::uint64_t bytes) const
{
    return recvFixed +
           static_cast<sim::Tick>(recvPerByte * static_cast<double>(bytes)) +
           static_cast<sim::Tick>(segments(bytes)) * perSegment;
}

std::uint64_t
TcpCosts::segments(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 1;
    return (bytes + mss - 1) / mss;
}

std::uint64_t
TcpCosts::wireBytes(std::uint64_t bytes) const
{
    return bytes + segments(bytes) * headerBytes;
}

TcpChannel::TcpChannel(TcpStack &local, TcpStack &remote,
                       std::uint64_t sockbuf)
    : _local(local), _remote(remote), _sockbuf(sockbuf)
{
    PRESS_ASSERT(sockbuf > 0, "socket buffer must be non-empty");
}

void
TcpChannel::send(std::uint64_t bytes, net::Payload payload)
{
    // Admit when the window has room; a message larger than the whole
    // window is admitted alone (TCP streams it out regardless).
    bool admit = _pending.empty() &&
                 (_inFlight == 0 || _inFlight + bytes <= _sockbuf);
    if (!admit) {
        ++_local._stats.sendsBlocked;
        _pending.push_back(PendingSend{bytes, std::move(payload)});
        return;
    }
    _inFlight += bytes;
    deliver(bytes, std::move(payload));
}

void
TcpChannel::deliver(std::uint64_t bytes, net::Payload payload)
{
    TcpStack &snd = _local;
    TcpStack &rcv = _remote;
    ++snd._stats.messagesSent;
    snd._stats.bytesSent += bytes;

    const TcpCosts &scosts = snd._costs;
    TcpChannel *self = this;

    // 1. Send-side kernel path on the sender CPU.
    snd._cpu.submit(
        scosts.sendCpu(bytes), snd._cpuCategory,
        [self, &snd, &rcv, bytes, payload = std::move(payload)]() mutable {
            // 2. The wire.
            snd._fabric.send(
                snd._node, rcv._node, snd._costs.wireBytes(bytes),
                [self, &rcv, bytes, payload = std::move(payload)]() mutable {
                    // 3. Receive-side kernel path on the receiver CPU.
                    rcv._cpu.submit(
                        rcv._costs.recvCpu(bytes), rcv._cpuCategory,
                        [self, &rcv, bytes,
                         payload = std::move(payload)]() mutable {
                            ++rcv._stats.messagesReceived;
                            rcv._stats.bytesReceived += bytes;
                            if (self->_handler)
                                self->_handler(bytes, payload);
                            // 4. Window update flows back after one wire
                            //    latency (delayed-ACK effects ignored).
                            //    The ACK crosses the wire, so the event
                            //    belongs to the *sender's* scheduling
                            //    domain: consumed() mutates sender-side
                            //    window state and resumes its CPU.
                            rcv._sim.scheduleIn(
                                rcv._fabric.portDomain(
                                    self->_local.node()),
                                rcv._fabric.config().wireLatency,
                                [self, bytes]() {
                                    self->consumed(bytes);
                                });
                        });
                });
        });
}

void
TcpChannel::consumed(std::uint64_t bytes)
{
    PRESS_ASSERT(_inFlight >= bytes, "TCP window accounting underflow");
    _inFlight -= bytes;
    trySend();
}

void
TcpChannel::trySend()
{
    while (!_pending.empty()) {
        auto &head = _pending.front();
        bool admit = _inFlight == 0 || _inFlight + head.bytes <= _sockbuf;
        if (!admit)
            return;
        PendingSend p = std::move(head);
        _pending.pop_front();
        _inFlight += p.bytes;
        deliver(p.bytes, std::move(p.payload));
    }
}

void
TcpChannel::onReceive(TcpReceiveFn handler)
{
    _handler = std::move(handler);
}

TcpStack::TcpStack(sim::Simulator &sim, net::Fabric &fabric,
                   net::NodeId node, sim::FifoResource &cpu,
                   int cpu_category, TcpCosts costs)
    : _sim(sim),
      _fabric(fabric),
      _node(node),
      _cpu(cpu),
      _cpuCategory(cpu_category),
      _costs(costs)
{
    PRESS_ASSERT(node >= 0 && node < fabric.ports(),
                 "TcpStack node id outside fabric");
}

std::pair<TcpChannel *, TcpChannel *>
TcpStack::connect(TcpStack &a, TcpStack &b, std::uint64_t sockbuf)
{
    auto fwd =
        std::unique_ptr<TcpChannel>(new TcpChannel(a, b, sockbuf));
    auto rev =
        std::unique_ptr<TcpChannel>(new TcpChannel(b, a, sockbuf));
    a._channels.push_back(std::move(fwd));
    b._channels.push_back(std::move(rev));
    return {a._channels.back().get(), b._channels.back().get()};
}

} // namespace press::tcpnet
