/**
 * @file
 * RecoveryRun: the crash-consistent run harness behind the fault-
 * recovery bench, the checkpoint tests and cli_sim's checkpoint mode.
 * It owns the whole deterministic stack — DRAM model, sharded device
 * array (recorded), rate configuration, ring scheduler — and drives
 * one multi-session workload through it. The backlog is a plan (the
 * open-loop synthetic grid or a materialized workload) consumed by a
 * cursor: serveOne() feeds the scheduler the next transaction and runs
 * it to quiescence, so the scheduler holds no queued work between
 * calls. Three additions over driving the scheduler directly:
 *
 *  - checkpoint: saveTo() serializes the complete run state (plan
 *    cursor, device array including functional tree images and
 *    fault-injector draws, scheduler enforcers, stats and the leakage
 *    monitor's ledger) through sim/checkpoint.hh's crash-consistent
 *    file format;
 *  - restart: a freshly constructed RecoveryRun over the SAME config
 *    can restoreFrom() a snapshot instead of start()ing, after which
 *    serving continues bit-exactly where the saved run left off — the
 *    completed run's observable shard streams, stats and counters are
 *    indistinguishable from an uninterrupted run (golden-pinned);
 *  - fault accounting: the per-shard fault/recovery counters and the
 *    enforcer-charged recovery slots are summed for reporting.
 *
 * Determinism contract: everything is derived from the config (seeds
 * included), so two RecoveryRuns with equal configs produce identical
 * streams — the bit-identity gates in bench_fault_recovery and
 * tests/test_fault_recovery rest on this.
 */

#ifndef TCORAM_SIM_RECOVERY_RUN_HH
#define TCORAM_SIM_RECOVERY_RUN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "dram/faulty_memory.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::sim {

struct RecoveryRunConfig
{
    /** Per-shard backend: "timing" or "functional". */
    std::string deviceKind = "timing";
    std::uint32_t shards = 1;
    std::uint32_t sessions = 2;
    /** Open-loop backlog per session (arrivals at cycle k). */
    std::uint64_t txnsPerSession = 64;
    /** Enforced inter-access gap (single-candidate rate set). */
    Cycles rate = 1000;
    /** Master seed: calibration, keys, routing, protocol identities. */
    std::uint64_t seed = 42;
    /** Fault model (data kinds arm the functional datapath). */
    dram::FaultSpec fault{};
    unsigned retryBudget = 4;
    /** Functional tree capacity cap (keeps host memory bounded). */
    std::uint64_t functionalBlockCap = 512;
    /** Path read/write-back scheduling of each shard's controller
     *  (the golden-pinned recovery streams run Sync). */
    oram::PathMode pathMode = oram::PathMode::Sync;
    /** Background eviction engine (requires Pipelined pathMode when
     *  non-off; oram/eviction_engine.hh). */
    oram::EvictionPolicy evictionPolicy = oram::EvictionPolicy::Off;
    std::uint32_t evictionBudget = 0;
    /** First epoch length; small enough that runs cross boundaries. */
    Cycles epoch0 = Cycles{1} << 18;
    /** Trailing-dummy drain horizon, in slot periods past the last
     *  real completion. */
    Cycles drainSlackPeriods = 8;
    /**
     * Workload-plane spec ("method:k=v,..."; workload/
     * workload_source.hh). Empty keeps the legacy synthetic backlog.
     * Non-empty switches the run to workload-driven mode: the op
     * stream is materialized into the backlog at construction (one
     * session per rank — `sessions` is overridden), and checkpoint
     * marks requested by the method (e.g. "daly"'s optimum interval)
     * become checkpointMarks() for the snapshot chain.
     */
    std::string workloadSpec{};
};

class RecoveryRun
{
  public:
    /** One observable stream event (per-shard, adversary's view). */
    struct Event
    {
        Cycles start = 0;
        bool real = false;

        bool
        operator==(const Event &o) const
        {
            return start == o.start && real == o.real;
        }
    };

    /** Construct the stack and open the sessions (no work queued). */
    explicit RecoveryRun(const RecoveryRunConfig &cfg);
    ~RecoveryRun();

    /** Begin serving the backlog from its first transaction (cold
     *  start). */
    void start();

    /**
     * Restore a snapshot instead of start()ing: the backlog cursor,
     * device and stats resume exactly where the saved run stood.
     * @return empty string on success, else the diagnostic (load
     *         failure, or a snapshot of a different session, shard or
     *         lane count).
     */
    std::string restoreFrom(const std::string &path);

    /** Serve the next backlog transaction. @return false when the
     *  backlog is exhausted. */
    bool serveOne();

    /**
     * Serve everything left, then fire trailing dummies to the
     * deterministic horizon. @return the drain horizon cycle.
     */
    Cycles finish();

    /** Crash-consistent snapshot of the full run state. @return empty
     *  string on success, else the save diagnostic. */
    std::string saveTo(const std::string &path) const;

    std::uint64_t servedTotal() const { return served_; }
    std::uint64_t backlogTotal() const { return plan_.size(); }
    bool workloadDriven() const { return !cfg_.workloadSpec.empty(); }
    /**
     * Served-count marks at which the workload asked for a snapshot
     * (serve until servedTotal() == mark, then saveTo() — the Daly
     * snapshot chain). Empty for methods without checkpoint requests.
     */
    const std::vector<std::uint64_t> &checkpointMarks() const
    {
        return marks_;
    }
    /** The workload's computed checkpoint interval in ops (0 when the
     *  method has none — workload/workload_source.hh). */
    std::uint64_t checkpointIntervalOps() const
    {
        return checkpointIntervalOps_;
    }
    Cycles lastRealCompletion() const { return lastReal_; }

    std::uint32_t shardCount() const { return device_->shardCount(); }
    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const;

    const RingScheduler &scheduler() const { return *sched_; }
    oram::ShardedOramDevice &device() { return *device_; }
    const RecoveryRunConfig &config() const { return cfg_; }

    /** Fault/recovery counters summed over functional shards (all
     *  zero for timing backends and fault-free runs). */
    std::uint64_t faultsInjected() const;
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;
    /** Enforcer-charged recovery slots summed over shards. */
    std::uint64_t recoverySlots() const;
    /** Background evictions issued, summed over shards (0 with the
     *  eviction engine off). */
    std::uint64_t evictionsIssued() const;

    /**
     * Functional payload round trip under the active fault model:
     * write @p probes seeded blocks through the scheduler, read each
     * back, count mismatches (0 on a correct datapath). No-op (0) for
     * timing backends. Run after finish()'s serves, before reusing
     * the run for stream comparisons.
     */
    std::uint64_t verifyPayloads(std::uint64_t probes);

    /** One CSV row: config echo + outcome + fault counters. */
    std::string csvRow() const;
    static std::string csvHeader();

  private:
    /** One backlog transaction. */
    struct PlannedOp
    {
        std::uint32_t session = 0;
        Cycles arrival = 0;
        std::uint64_t blockId = 0;
        bool isWrite = false;
    };

    void materializeWorkload();
    /** Serve one transaction to completion through the scheduler. */
    void serveTxn(std::uint32_t sid, Cycles arrival,
                  const timing::OramTransaction &txn);

    RecoveryRunConfig cfg_;
    dram::DramModel mem_;
    Rng rng_;
    timing::RateSet rates_;
    timing::EpochSchedule schedule_;
    timing::RateLearner learner_;
    std::unique_ptr<oram::ShardedOramDevice> device_;
    std::unique_ptr<RingScheduler> sched_;
    bool started_ = false;
    std::uint64_t served_ = 0;
    Cycles lastReal_ = 0;
    /** Next probe arrival per session (after the backlog's arrivals). */
    std::vector<Cycles> probeArrival_;
    /** The backlog, in service order, and the next entry to serve. */
    std::vector<PlannedOp> plan_;
    std::uint64_t next_ = 0;
    /** Served-count checkpoint marks, ascending. */
    std::vector<std::uint64_t> marks_;
    std::uint64_t checkpointIntervalOps_ = 0;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_RECOVERY_RUN_HH
