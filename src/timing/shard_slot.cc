#include "timing/shard_slot.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::timing {

ShardSlot::ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
                     const RateSet &rates, const EpochSchedule &schedule,
                     const LearnerIf &learner, Cycles initial_rate)
    : shardId_(shard_id),
      enf_(device, rates, schedule, learner, initial_rate),
      policy_(makeDispatchPolicy(DispatchPolicyKind::RoundRobin))
{
}

void
ShardSlot::setDispatchPolicy(std::unique_ptr<DispatchPolicy> policy)
{
    policy_ = std::move(policy);
}

DispatchView::Entry
ShardSlot::View::entry(std::size_t k) const
{
    const std::size_t n = slot_.activeCount_;
    tcoram_dassert(k < n, "dispatch view position out of range");
    std::uint32_t idx;
    if (k == n - 1) {
        idx = slot_.listCursor_; // last served closes the scan
    } else if (cachedIdx_ != kNil && k == cachedPos_ + 1 &&
               cachedPos_ != n - 1) {
        idx = slot_.queuePool_[cachedIdx_].next;
    } else if (cachedIdx_ != kNil && k == cachedPos_) {
        idx = cachedIdx_;
    } else {
        idx = slot_.queuePool_[slot_.listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = slot_.queuePool_[idx].next;
    }
    cachedPos_ = k;
    cachedIdx_ = idx;
    const auto &q = slot_.queuePool_[idx];
    const Cycles head_arrival = slot_.nodePool_[q.head].arrival;
    return {q.sid, head_arrival, q.weight, head_arrival + q.deadlineOffset};
}

std::uint32_t
ShardSlot::allocNode(Cycles arrival, const OramTransaction &txn)
{
    std::uint32_t idx;
    if (nodeFree_ != kNil) {
        idx = nodeFree_;
        nodeFree_ = nodePool_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(nodePool_.size());
        nodePool_.emplace_back();
    }
    nodePool_[idx] = Node{arrival, txn, kNil};
    return idx;
}

void
ShardSlot::freeNode(std::uint32_t idx)
{
    nodePool_[idx].next = nodeFree_;
    nodeFree_ = idx;
}

void
ShardSlot::enqueue(std::uint32_t sid, Cycles arrival,
                   const OramTransaction &txn, std::uint16_t weight,
                   Cycles deadline_offset)
{
    if (sessionQueue_.size() <= sid)
        sessionQueue_.resize(static_cast<std::size_t>(sid) + 1, kNil);
    const std::uint32_t node = allocNode(arrival, txn);
    std::uint32_t q_idx = sessionQueue_[sid];
    if (q_idx == kNil) {
        // (Re)activate at the back of the round: new sessions join the
        // scan just before the cursor, so everyone already waiting is
        // served first. Activation order is a pure function of the
        // enqueue sequence — worker-count independent.
        if (queueFree_ != kNil) {
            q_idx = queueFree_;
            queueFree_ = queuePool_[q_idx].next;
        } else {
            q_idx = static_cast<std::uint32_t>(queuePool_.size());
            queuePool_.emplace_back();
        }
        ActiveQueue &q = queuePool_[q_idx];
        q.sid = sid;
        q.head = q.tail = node;
        q.weight = std::max<std::uint16_t>(weight, 1);
        q.deadlineOffset = deadline_offset;
        if (activeCount_ == 0) {
            q.prev = q.next = q_idx;
            listCursor_ = q_idx;
        } else {
            const std::uint32_t cur = listCursor_;
            const std::uint32_t prev = queuePool_[cur].prev;
            q.prev = prev;
            q.next = cur;
            queuePool_[prev].next = q_idx;
            queuePool_[cur].prev = q_idx;
        }
        ++activeCount_;
        sessionQueue_[sid] = q_idx;
    } else {
        ActiveQueue &q = queuePool_[q_idx];
        tcoram_assert(nodePool_[q.tail].arrival <= arrival,
                      "per-session arrivals must be non-decreasing");
        nodePool_[q.tail].next = node;
        q.tail = node;
    }
    ++pending_;
}

std::uint32_t
ShardSlot::pick()
{
    View v(*this);
    const std::size_t k = policy_->pick(v);
    tcoram_assert(k < activeCount_, "dispatch policy picked position ", k,
                  " of ", activeCount_, " on shard ", shardId_);
    std::uint32_t idx = listCursor_;
    if (k != activeCount_ - 1) {
        idx = queuePool_[listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = queuePool_[idx].next;
    }
    listCursor_ = idx; // the cursor moves at pick time
    return idx;
}

void
ShardSlot::popServed(std::uint32_t q_idx)
{
    ActiveQueue &q = queuePool_[q_idx];
    const std::uint32_t node = q.head;
    q.head = nodePool_[node].next;
    if (q.head == kNil)
        q.tail = kNil;
    freeNode(node);
    --pending_;
    if (q.head == kNil) {
        // Deactivate: unlink; the cursor falls back to the previous
        // entry so the next scan continues from the same place.
        sessionQueue_[q.sid] = kNil;
        if (activeCount_ == 1) {
            listCursor_ = kNil;
        } else {
            queuePool_[q.prev].next = q.next;
            queuePool_[q.next].prev = q.prev;
            if (listCursor_ == q_idx)
                listCursor_ = q.prev;
        }
        --activeCount_;
        q.next = queueFree_; // reuse the link as the freelist chain
        queueFree_ = q_idx;
    }
}

ShardSlot::ServeStatus
ShardSlot::serve(Served &out)
{
    if (heldQueue_ == kNil) {
        if (pending_ == 0)
            return enf_.settleRecovery() ? ServeStatus::Idle
                                         : ServeStatus::Blocked;
        heldQueue_ = pick();
    }
    const ActiveQueue &q = queuePool_[heldQueue_];
    const Node &head = nodePool_[q.head];
    const auto c = enf_.serveBounded(head.arrival, head.txn);
    if (!c)
        return ServeStatus::Blocked;
    out = Served{q.sid, head.arrival, *c, head.txn.tag};
    popServed(heldQueue_);
    heldQueue_ = kNil;
    return ServeStatus::Done;
}

bool
ShardSlot::drain(Cycles t)
{
    tcoram_assert(idle(), "drain with transactions still queued on shard ",
                  shardId_);
    return enf_.drainBounded(t);
}

void
ShardSlot::saveState(ByteWriter &w) const
{
    tcoram_assert(idle(), "queued transactions are not checkpointable on "
                          "shard ", shardId_);
    enf_.saveState(w);
    policy_->saveState(w);
}

void
ShardSlot::restoreState(ByteReader &r)
{
    tcoram_assert(idle(), "restore into a busy slot on shard ", shardId_);
    enf_.restoreState(r);
    policy_->restoreState(r);
}

} // namespace tcoram::timing
