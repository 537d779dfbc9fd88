/**
 * @file
 * ShardSlot: the per-shard unit of rate enforcement and dispatch.
 * Sharding the ORAM tree across M devices gives each shard its own
 * enforcer (its own periodic observable stream, its own epoch clock
 * and counters) plus the per-session queues of the transactions
 * routed to it. The ring scheduler (sim/shard_worker.hh) drives M
 * slots; WHEN a slot's accesses happen is decided entirely by that
 * slot's enforcer, so the observable channel is M independent periodic
 * streams whatever the dispatch policy does.
 *
 * Sessions with queued work live on a circular activation list over
 * pooled intrusive queues, so dispatch is O(active) worst case and
 * O(1) under backlog, and steady-state allocation-free. Serving is
 * BOUNDED — it stops at the shard's next epoch boundary instead of
 * touching the shared LeakageMonitor, so M worker threads stay
 * race-free and bit-identical to one thread (transitions are applied
 * in shard-id order at a barrier via applyTransition()). WHICH session
 * rides a slot is chosen by a pluggable DispatchPolicy (rr/wrr/edf).
 */

#ifndef TCORAM_TIMING_SHARD_SLOT_HH
#define TCORAM_TIMING_SHARD_SLOT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "timing/dispatch_policy.hh"
#include "timing/oram_device.hh"
#include "timing/rate_enforcer.hh"

namespace tcoram::timing {

class ShardSlot
{
  public:
    /** One transaction served from this shard's stream. */
    struct Served
    {
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        OramCompletion completion;
        std::uint64_t tag = 0; ///< the served txn's attribution tag
    };

    /** Own a fresh enforcer over @p device. */
    ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
              const RateSet &rates, const EpochSchedule &schedule,
              const LearnerIf &learner, Cycles initial_rate);

    std::uint32_t shardId() const { return shardId_; }
    RateEnforcer &enforcer() { return enf_; }
    const RateEnforcer &enforcer() const { return enf_; }

    std::uint64_t pending() const { return pending_; }
    bool idle() const { return pending_ == 0 && heldQueue_ == kNil; }

    /** Install the QoS policy (default: round-robin). */
    void setDispatchPolicy(std::unique_ptr<DispatchPolicy> policy);

    /**
     * Queue a transaction. @p weight (wrr) and @p deadline_offset
     * (edf) are per-session QoS attributes; they are latched when the
     * session joins the activation list. Per-(session, shard) arrivals
     * must be non-decreasing. The txn's data/out spans are views;
     * their buffers must outlive service.
     */
    void enqueue(std::uint32_t sid, Cycles arrival, const OramTransaction &txn,
                 std::uint16_t weight = 1, Cycles deadline_offset = 0);

    enum class ServeStatus
    {
        Done,    ///< one transaction served
        Blocked, ///< epoch transition due: applyTransition() then retry
        Idle,    ///< nothing queued and no recovery slot owed
    };

    /**
     * Bounded serve: dispatch one transaction, stopping (Blocked) when
     * the shard's next epoch boundary must be crossed first. The pick
     * is made once and held across Blocked retries — exactly the
     * unbounded order of operations. With nothing queued, settles the
     * enforcer's owed recovery slots before reporting Idle.
     */
    ServeStatus serve(Served &out);

    /**
     * Bounded drain to @p t; false when an epoch transition at
     * nextBoundary() must be applied (at the barrier) first.
     */
    bool drain(Cycles t);

    /** Next epoch boundary of this shard's enforcer. */
    Cycles nextBoundary() const { return enf_.nextBoundary(); }

    /** Serial barrier step: apply the transition at nextBoundary(). */
    void applyTransition() { enf_.applyTransition(); }

    /**
     * Checkpoint support: the enforcer and the dispatch policy's
     * state. Queues are not serializable (transactions carry buffer
     * views), so the slot must be idle — asserted.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Pooled FIFO node. */
    struct Node
    {
        Cycles arrival;
        OramTransaction txn;
        std::uint32_t next = kNil;
    };

    /** A session on the activation list: an intrusive FIFO plus the
     *  circular doubly-linked list stitching (activation order). */
    struct ActiveQueue
    {
        std::uint32_t sid = 0;
        std::uint32_t head = kNil, tail = kNil; ///< Node indices
        std::uint32_t prev = kNil, next = kNil; ///< ActiveQueue indices
        std::uint16_t weight = 1;
        Cycles deadlineOffset = 0;
    };

    /** DispatchView over the activation list, RR scan order. */
    class View final : public DispatchView
    {
      public:
        explicit View(const ShardSlot &slot) : slot_(slot) {}
        std::size_t size() const override { return slot_.activeCount_; }
        Entry entry(std::size_t k) const override;
        Cycles
        lastCompletion() const override
        {
            return slot_.enf_.lastCompletion();
        }

      private:
        const ShardSlot &slot_;
        mutable std::size_t cachedPos_ = 0;     ///< sequential-scan cache
        mutable std::uint32_t cachedIdx_ = kNil;
    };

    std::uint32_t allocNode(Cycles arrival, const OramTransaction &txn);
    void freeNode(std::uint32_t idx);
    std::uint32_t pick();
    void popServed(std::uint32_t q_idx);

    std::uint32_t shardId_;
    RateEnforcer enf_;

    std::vector<Node> nodePool_;
    std::uint32_t nodeFree_ = kNil;
    std::vector<ActiveQueue> queuePool_;
    std::uint32_t queueFree_ = kNil;
    /** sid -> ActiveQueue index (kNil when inactive); dense, persists
     *  so steady-state reactivation is allocation-free. */
    std::vector<std::uint32_t> sessionQueue_;
    std::uint32_t listCursor_ = kNil; ///< last-served ActiveQueue
    std::size_t activeCount_ = 0;
    std::uint64_t pending_ = 0;
    std::uint32_t heldQueue_ = kNil; ///< pick held across Blocked
    std::unique_ptr<DispatchPolicy> policy_;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_SHARD_SLOT_HH
