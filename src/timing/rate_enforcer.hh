/**
 * @file
 * Leakage-enforced ORAM access scheduler (paper Figure 3). Within an
 * epoch, ORAM accesses — real or indistinguishable dummies — start
 * exactly `rate` cycles after the previous access completes. At each
 * epoch transition the rate learner picks the next rate from R using
 * the epoch's performance counters, which are then reset.
 *
 * The enforcer is event-driven: time advances when the processor
 * presents an LLC miss or when the run drains. Dummy accesses that
 * fire inside compute gaps are simulated (they cost energy and shape
 * the observable trace).
 *
 * A static (zero ORAM-timing-leakage) scheme is expressed as a
 * single-candidate RateSet: the learner can then only ever re-select
 * the same rate, giving lg 1 = 0 bits.
 */

#ifndef TCORAM_TIMING_RATE_ENFORCER_HH
#define TCORAM_TIMING_RATE_ENFORCER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/learner_if.hh"
#include "timing/oram_device.hh"
#include "timing/perf_counters.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::timing {

/** One epoch-boundary rate decision (for Figure 7 annotations). */
struct RateDecision
{
    unsigned epoch;
    Cycles startCycle;
    Cycles rate;
};

class RateEnforcer
{
  public:
    /**
     * @param device ORAM controller to drive
     * @param rates  public candidate set R
     * @param schedule epoch schedule E
     * @param learner rate learner (bound to @p rates)
     * @param initial_rate rate used during epoch 0 (paper: 10000)
     */
    RateEnforcer(OramDeviceIf &device, const RateSet &rates,
                 const EpochSchedule &schedule, const LearnerIf &learner,
                 Cycles initial_rate);

    /**
     * Attach a session leakage budget (§2.1): once the monitor's
     * budget is exhausted, epoch transitions stop consulting the
     * learner and pin the current rate — a forced decision consumes
     * no bits, so the realized leakage never exceeds L.
     */
    void attachMonitor(LeakageMonitor *monitor) { monitor_ = monitor; }

    /**
     * Serve a real transaction that arrives at cycle @p arrival. Any
     * dummy slots that fire before the request can be scheduled are
     * simulated first; the transaction starts at the first enforced
     * slot at or after its arrival, so the observable stream stays
     * periodic whatever the request carries. Returns the completion
     * record (the line is available at .done).
     */
    OramCompletion serve(Cycles arrival, const OramTransaction &txn);

    /** Payload-free convenience over serve(). */
    Cycles
    serveReal(Cycles arrival)
    {
        return serve(arrival, OramTransaction::real()).done;
    }

    /**
     * Advance the enforced schedule to cycle @p t with no pending
     * work, firing the dummy accesses the rate demands. Called when
     * the program ends (and optionally at sync points).
     */
    void drainUntil(Cycles t);

    // --- Bounded-horizon variants (multi-threaded worker pool) ---
    //
    // serve()/drainUntil() process epoch transitions inline, which is
    // fine single-threaded but racy when M enforcers share one
    // LeakageMonitor across worker threads. The bounded variants stop
    // INSTEAD of processing a transition: the caller applies pending
    // transitions at a deterministic slot barrier (shard-id order, see
    // sim/shard_worker.hh) via applyTransition() and then retries.
    // Composing bounded ops with barrier-applied transitions replays
    // the identical micro-operation sequence — dummies, recovery
    // slots, waste charges, transitions, serves, all in the same order
    // with the same counters — as the unbounded calls, so per-shard
    // observable streams and decisions stay bit-identical to the
    // single-threaded path (test-enforced in
    // tests/test_scheduler_scale.cc).

    /**
     * Bounded serve(): returns nullopt when the transaction cannot be
     * served before this enforcer's next epoch boundary. The caller
     * must applyTransition() (after the barrier) and retry with the
     * SAME transaction — the enforcer tracks the per-transaction
     * Req 3 waste charge across retries. A served transaction that
     * reported retries leaves its backoff slots owed; they fire ahead
     * of every later slot, as far as the next boundary allows.
     */
    std::optional<OramCompletion> serveBounded(Cycles arrival,
                                               const OramTransaction &txn);

    /**
     * Bounded drainUntil(): fires owed recovery slots, then the dummy
     * slots due before @p t, but stops instead of processing an epoch
     * transition. @return true when the schedule reached @p t; false
     * when a transition at nextBoundary() must be applied first.
     */
    bool drainBounded(Cycles t);

    /**
     * Fire the owed recovery slots (bounded): @return true once none
     * are owed; false when the next one lies at or past nextBoundary()
     * and the transition must be applied first.
     */
    bool settleRecovery();

    /** The epoch boundary the bounded calls refuse to cross. */
    Cycles nextBoundary() const { return schedule_.epochStart(epoch_ + 1); }

    /**
     * Apply the epoch transition at nextBoundary() — the serial
     * barrier step. Only meaningful right after a bounded call
     * reported it stopped at the boundary; transitions must be applied
     * in shard-id order so the shared monitor's ledger is
     * deterministic whatever the worker count.
     */
    void applyTransition() { transitionAt(nextBoundary()); }

    Cycles currentRate() const { return rate_; }
    unsigned currentEpoch() const { return epoch_; }
    const std::vector<RateDecision> &decisions() const { return decisions_; }
    const PerfCounters &counters() const { return counters_; }
    /** Transitions at which the leakage budget pinned the rate. */
    unsigned pinnedDecisions() const { return pinnedDecisions_; }

    /** Completion cycle of the most recent (real or dummy) access. */
    Cycles lastCompletion() const { return lastCompletion_; }

    /**
     * Checkpoint support: rate/epoch position, completion horizons,
     * owed recovery slots, counters and the decision log. The attached monitor is shared
     * across enforcers and checkpointed by its owner.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /**
     * Complete a real access that started at @p start: counters,
     * completion horizons, the eviction window, and the recovered
     * transaction's retry cost — its exponential-backoff slots become
     * owed dummy-equivalent accesses at the enforced slot positions
     * (settleRecovery()). The slots land exactly where idle dummies
     * would, so the stream stays periodic — an observer cannot tell
     * recovery from idleness, which is the leak-free property the
     * fault model requires.
     */
    void completeReal(Cycles start, const OramCompletion &c);
    /** Fire one dummy (or recovery) slot at @p at. */
    void fireDummy(Cycles at);
    /**
     * Offer the device a background-eviction window (eviction engine,
     * oram/eviction_engine.hh) after a completed slot: from the
     * device's busy horizon up to the next slot's earliest possible
     * service start — bounded by the fastest candidate rate when an
     * epoch transition comes first, so an eviction in flight never
     * delays a post-transition slot. Eviction traffic is charged like
     * PR 7's recovery slots (dummy-equivalent crypto into the
     * counters), never into the slot grid. No-op on eviction-free
     * devices.
     */
    void evictInGap();
    /** Apply the epoch transition at @p boundary. */
    void transitionAt(Cycles boundary);
    /** Next cycle an access may start under the current rate. */
    Cycles nextSlot() const;

    OramDeviceIf &device_;
    const RateSet &rates_;
    EpochSchedule schedule_;
    const LearnerIf &learner_;
    PerfCounters counters_;
    Cycles rate_;
    /** Fastest rate any epoch decision could select (incl. epoch 0's
     *  initial rate): the eviction horizon's transition-safe bound. */
    Cycles rateFloor_;
    unsigned epoch_ = 0;
    Cycles lastCompletion_ = 0;
    /** Completion cycle of the last *real* access (Req 3 detection). */
    Cycles lastRealCompletion_ = 0;
    std::vector<RateDecision> decisions_;
    LeakageMonitor *monitor_ = nullptr;
    unsigned pinnedDecisions_ = 0;
    /**
     * Whether the in-flight bounded transaction already completed its
     * pre-arrival advance and took its Req 3 waste charge —
     * serveBounded() retries must skip both (serve()'s post-arrival
     * loop neither fires dummies nor re-charges).
     */
    bool serveWasteCharged_ = false;
    /** Backoff slots owed by the last recovered transaction. */
    std::uint64_t owedSlots_ = 0;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_RATE_ENFORCER_HH
