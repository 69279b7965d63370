#include "virtual_interface.hpp"

#include "util/logging.hpp"
#include "via/observer.hpp"
#include "via/via_nic.hpp"

namespace press::via {

VirtualInterface::VirtualInterface(ViaNic &nic, net::NodeId node, int id,
                                   CompletionQueue *send_cq,
                                   CompletionQueue *recv_cq)
    : _nic(nic), _node(node), _id(id), _sendCq(send_cq), _recvCq(recv_cq)
{
}

bool
VirtualInterface::postSend(DescriptorPtr desc)
{
    PRESS_ASSERT(desc, "null send descriptor");
    if (_sendOutstanding >= MaxQueueDepth)
        return false; // rejected posts never reach the NIC (or observers)
    // With an observer attached, lifecycle enforcement is delegated to it
    // (a checker in abort mode panics with a structured report; one in
    // record mode notes the violation and lets the simulation proceed).
    if (ViaObserver *obs = _nic.observer())
        obs->onPostSend(*this, *desc);
    else
        PRESS_ASSERT(desc->status == Status::Pending,
                     "descriptor reposted before completion");
    // Every admitted post is in flight until it completes, the ones that
    // complete at once on a dead connection included.
    ++_sendOutstanding;
    if (!_peer || _broken) {
        completeSend(std::move(desc), Status::ErrorDisconnected);
        return true;
    }
    _nic.processSend(*this, std::move(desc));
    return true;
}

bool
VirtualInterface::postRecv(DescriptorPtr desc)
{
    PRESS_ASSERT(desc, "null recv descriptor");
    if (_recvQueue.size() >= MaxQueueDepth)
        return false;
    if (ViaObserver *obs = _nic.observer())
        obs->onPostRecv(*this, *desc);
    else
        PRESS_ASSERT(desc->status == Status::Pending,
                     "descriptor reposted before completion");
    _recvQueue.push_back(std::move(desc));
    return true;
}

DescriptorPtr
VirtualInterface::pollSend()
{
    PRESS_ASSERT(!_sendCq,
                 "pollSend on a VI whose send queue feeds a CQ");
    if (_sendDone.empty())
        return nullptr;
    DescriptorPtr d = std::move(_sendDone.front());
    _sendDone.pop_front();
    return d;
}

DescriptorPtr
VirtualInterface::pollRecv()
{
    PRESS_ASSERT(!_recvCq,
                 "pollRecv on a VI whose recv queue feeds a CQ");
    if (_recvDone.empty())
        return nullptr;
    DescriptorPtr d = std::move(_recvDone.front());
    _recvDone.pop_front();
    return d;
}

void
VirtualInterface::completeSend(DescriptorPtr desc, Status status)
{
    desc->status = status;
    if (status == Status::Complete)
        desc->bytesDone = desc->length;
    PRESS_ASSERT(_sendOutstanding > 0, "send completion without a post");
    --_sendOutstanding;
    if (ViaObserver *obs = _nic.observer())
        obs->onCompletion(*this, *desc, false);
    if (_sendCq)
        _sendCq->push(Completion{std::move(desc), this, false});
    else
        _sendDone.push_back(std::move(desc));
}

void
VirtualInterface::completeRecv(DescriptorPtr desc)
{
    if (ViaObserver *obs = _nic.observer())
        obs->onCompletion(*this, *desc, true);
    if (_recvCq)
        _recvCq->push(Completion{std::move(desc), this, true});
    else
        _recvDone.push_back(std::move(desc));
}

void
VirtualInterface::flushRecvQueue()
{
    while (!_recvQueue.empty()) {
        DescriptorPtr d = std::move(_recvQueue.front());
        _recvQueue.pop_front();
        d->status = Status::ErrorFlushed;
        completeRecv(std::move(d));
    }
}

DescriptorPtr
VirtualInterface::takeRecv()
{
    if (_recvQueue.empty())
        return nullptr;
    DescriptorPtr d = std::move(_recvQueue.front());
    _recvQueue.pop_front();
    return d;
}

} // namespace press::via
