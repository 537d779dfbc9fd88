#include "sim/session_ring.hh"

namespace tcoram::sim {

SessionRing::SessionRing(std::size_t capacity)
    : sq_(capacity), cq_(capacity), window_(sq_.capacity(), 0)
{
}

std::optional<std::uint64_t>
SessionRing::trySubmit(std::uint32_t sid, Cycles arrival,
                       const timing::OramTransaction &txn)
{
    // The single backpressure bound gates on the retirement FENCE, not
    // the drain count: completions pop in shard-fold order, so a
    // producer that pops a few out-of-order completions and resubmits
    // can push drained well past the fence, and a drain-count bound
    // would then let token - fence exceed the retirement window (two
    // live tokens aliasing one window slot). Because fence <= drained,
    // this bound is strictly tighter than submitted - drained <
    // capacity, so it still implies a free submission slot (sq
    // occupancy <= in-flight) AND reserves a completion slot.
    if (submitted() - fence_.load(std::memory_order_relaxed) >=
        sq_.capacity())
        return std::nullopt;
    const std::uint64_t token = nextToken_;
    const bool ok = sq_.tryPush(Submission{token, sid, arrival, txn});
    tcoram_assert(ok, "submission ring full below the in-flight bound");
    ++nextToken_;
    return token;
}

bool
SessionRing::popCompletion(Completion &out)
{
    if (!cq_.tryPop(out))
        return false;
    ++drained_;
    // Tokens retire out of order across shards; mark the slot in the
    // capacity-sized window and advance the fence over every
    // consecutively-retired token. trySubmit's fence bound guarantees
    // token - fence <= capacity for every live token, so slots never
    // collide.
    const std::size_t mask = window_.size() - 1;
    std::uint64_t fence = fence_.load(std::memory_order_relaxed);
    tcoram_dassert(out.token > fence && out.token - fence <= window_.size(),
                   "completion token outside the retirement window");
    window_[out.token & mask] = 1;
    while (window_[(fence + 1) & mask]) {
        window_[(fence + 1) & mask] = 0;
        ++fence;
    }
    fence_.store(fence, std::memory_order_release);
    return true;
}

bool
SessionRing::popSubmission(Submission &out)
{
    return sq_.tryPop(out);
}

void
SessionRing::pushCompletion(const Completion &c)
{
    const bool ok = cq_.tryPush(c);
    tcoram_assert(ok, "completion ring full: in-flight bound violated");
}

void
SessionRing::saveState(ByteWriter &w) const
{
    tcoram_assert(quiescent(), "lane with work in flight is not "
                               "checkpointable");
    w.u64(submitted());
}

void
SessionRing::restoreState(ByteReader &r)
{
    tcoram_assert(quiescent(), "restore into a busy lane");
    const std::uint64_t tokens = r.u64();
    nextToken_ = tokens + 1;
    drained_ = tokens;
    fence_.store(tokens, std::memory_order_release);
}

} // namespace tcoram::sim
