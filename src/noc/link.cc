#include "noc/link.hh"

#include "check/checker_registry.hh"
#include "common/log.hh"

namespace ocor
{

void
Link::pushCredit(unsigned vc, Cycle at)
{
    creditSink_.mark();
    if (credits_.empty())
        creditAt_ = at;
    credits_.push({at, vc});
}

void
Link::sendFlit(Flit flit, Cycle now)
{
    if (lastFlitSend_ != neverCycle && lastFlitSend_ == now)
        ocor_panic("Link: two flits sent in cycle %llu",
                   static_cast<unsigned long long>(now));
    lastFlitSend_ = now;
    ++flitsCarried_;
    if (check_)
        check_->onLinkFlitSent();

    Cycle at = now + latency_;
    if (fault_ && fault_->active()) {
        Cycle extra = 0;
        if (fault_->targets(linkId_, *flit.pkt)) {
            // Drop decisions are per packet (made at the head) so the
            // downstream agent never sees a partial packet; corruption
            // and jitter are per flit.
            if (flit.isHead() && fault_->drawDrop())
                droppingPkts_.insert(flit.pkt->id);
            auto it = droppingPkts_.find(flit.pkt->id);
            if (it != droppingPkts_.end()) {
                if (flit.isTail()) {
                    droppingPkts_.erase(it);
                    ++fault_->stats().packetsDropped;
                }
                ++fault_->stats().flitsDropped;
                // The flit consumed wire bandwidth but will never
                // occupy the downstream buffer slot the sender
                // debited: synthesize its credit so flow control
                // does not leak.
                pushCredit(flit.vc, now + latency_);
                return;
            }
            if (fault_->drawCorrupt()) {
                flit.corrupted = true;
                ++fault_->stats().flitsCorrupted;
            }
            extra = fault_->drawJitter();
            if (extra > 0)
                ++fault_->stats().flitsDelayed;
        }
        // A stalled flit must not be overtaken by later ones (FIFO
        // wire), and the wire still delivers at most one flit per
        // cycle: arrivals are strictly increasing.
        at = std::max(now + latency_ + extra, lastArrival_ + 1);
        lastArrival_ = at;
    }
    flitSink_.mark();
    if (flits_.empty())
        flitAt_ = at;
    flits_.push({at, std::move(flit)});
}

Flit
Link::popFlit(Cycle now)
{
    if (flitAt_ < now)
        ocor_panic("Link: flit missed its delivery cycle");
    Flit f = flits_.pop().flit;
    flitAt_ = flits_.empty() ? neverCycle : flits_.front().at;
    if (check_)
        check_->onLinkFlitDelivered();
    return f;
}

void
Link::sendCredit(unsigned vc, Cycle now)
{
    pushCredit(vc, now + latency_);
}

} // namespace ocor
