#include "sim/recovery_run.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "oram/oram_config.hh"
#include "sim/checkpoint.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

namespace {

/** Deterministic per-(session, k) backlog block id, spread wide so the
 *  PRF router sees distinct blocks (same scheme as the benches). */
std::uint64_t
blockId(std::uint32_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

/** Probe block ids live in their own sparse range so write-then-read
 *  probes land on blocks the backlog never touched. */
std::uint64_t
probeBlockId(std::uint64_t i)
{
    return 0xbe57'0000ull + i * 104'729ull;
}

oram::OramDeviceSpec
innerSpec(const RecoveryRunConfig &cfg)
{
    oram::OramDeviceSpec spec;
    spec.kind = cfg.deviceKind;
    spec.keySeed = mixSeed(cfg.seed, 0x0de71ce5ull);
    spec.functionalBlockCap = cfg.functionalBlockCap;
    spec.fault = cfg.fault;
    spec.retryBudget = cfg.retryBudget;
    spec.pathMode = cfg.pathMode;
    spec.evictionPolicy = cfg.evictionPolicy;
    spec.evictionBudget = cfg.evictionBudget;
    return spec;
}

protocol::LeakageParams
runParams(const RecoveryRunConfig &cfg)
{
    protocol::LeakageParams p;
    // Single-candidate rate set: each decision reveals lg(1) = 0 bits,
    // so every finite budget admits and the monitor ledger still runs
    // (its state is part of what the checkpoint must round-trip).
    p.rateCount = 1;
    p.epoch0 = cfg.epoch0;
    return p;
}

} // namespace

RecoveryRun::RecoveryRun(const RecoveryRunConfig &cfg)
    : cfg_(cfg), mem_(dram::DramConfig{}), rng_(cfg.seed),
      rates_(std::vector<Cycles>{cfg.rate}),
      schedule_(cfg.epoch0, 2, Cycles{1} << 40), learner_(rates_)
{
    tcoram_assert(cfg_.shards >= 1, "recovery run needs a shard");
    if (workloadDriven()) {
        materializeWorkload(); // overrides cfg_.sessions to the ranks
    } else {
        // Open-loop: the whole backlog arrives up front (session s's
        // k-th transaction at cycle k), the saturation regime where
        // every shard serves back-to-back and the slot grid never
        // breaks.
        plan_.reserve(cfg_.sessions * cfg_.txnsPerSession);
        for (std::uint64_t k = 0; k < cfg_.txnsPerSession; ++k)
            for (std::uint32_t s = 0; s < cfg_.sessions; ++s)
                plan_.push_back({s, k, blockId(s, k), k % 3 == 0});
    }
    tcoram_assert(cfg_.sessions >= 1, "recovery run needs a session");
    device_ = std::make_unique<oram::ShardedOramDevice>(
        innerSpec(cfg_), oram::OramConfig::benchConfig(), cfg_.shards,
        mixSeed(cfg_.seed, 0x0072a7e5ull), mem_, rng_, /*record=*/true);
    RingScheduler::Options opts;
    opts.ringCapacity = 2; // one transaction in flight at a time
    sched_ = std::make_unique<RingScheduler>(*device_, rates_, schedule_,
                                             learner_, cfg_.rate,
                                             runParams(cfg_), opts);
    // Session 0 carries a finite budget so the shared LeakageMonitor
    // exists and its ledger is exercised (and checkpointed); with a
    // single-rate set the budget can never be exceeded.
    for (std::uint32_t s = 0; s < cfg_.sessions; ++s)
        sched_->openSession(mixSeed(cfg_.seed, 0x5e55ull + s),
                            s == 0 ? 64.0 : -1.0);
    probeArrival_.assign(cfg_.sessions, cfg_.txnsPerSession);
    // Probe arrivals must stay past every planned arrival (per-session
    // arrival order is asserted at enqueue).
    for (const PlannedOp &op : plan_)
        probeArrival_[op.session] =
            std::max(probeArrival_[op.session], op.arrival + 1);
}

void
RecoveryRun::materializeWorkload()
{
    using workload::WorkloadOp;
    using workload::WorkloadOpKind;
    const workload::WorkloadParams params =
        workload::parseWorkloadSpec(cfg_.workloadSpec);
    const auto source = workload::loadWorkload(params);
    checkpointIntervalOps_ = source->checkpointIntervalOps();
    cfg_.sessions = source->ranks();
    const std::uint64_t blocks = oram::OramConfig::benchConfig().numBlocks;
    // Walk each rank's stream to End, mapping access ops onto blocks
    // the way the replay driver does; think time stretches the rank's
    // arrival clock. A checkpointAfter request becomes a served-count
    // mark: serve until servedTotal() hits it, snapshot, continue.
    for (std::uint32_t rank = 0; rank < cfg_.sessions; ++rank) {
        Cycles arrival = 0;
        for (;;) {
            const WorkloadOp op = source->getNext(rank);
            if (op.kind == WorkloadOpKind::End)
                break;
            if (op.kind == WorkloadOpKind::Think) {
                arrival += op.thinkCycles;
                continue;
            }
            const std::uint32_t n =
                op.kind == WorkloadOpKind::Scan ? op.scanLen : 1;
            for (std::uint32_t j = 0; j < n; ++j) {
                plan_.push_back({rank, arrival++, (op.key + j) % blocks,
                                 op.kind == WorkloadOpKind::Put});
            }
            if (op.checkpointAfter)
                marks_.push_back(plan_.size());
            tcoram_assert(plan_.size() < (1u << 24),
                          "workload-driven recovery backlog too large");
        }
    }
    // Serve the ranks concurrently, in arrival order (stable, so each
    // rank's own order is kept).
    std::stable_sort(plan_.begin(), plan_.end(),
                     [](const PlannedOp &a, const PlannedOp &b) {
                         return a.arrival < b.arrival;
                     });
    std::sort(marks_.begin(), marks_.end());
    marks_.erase(std::unique(marks_.begin(), marks_.end()), marks_.end());
}

RecoveryRun::~RecoveryRun() = default;

void
RecoveryRun::start()
{
    tcoram_assert(!started_, "run already started or restored");
    started_ = true;
}

void
RecoveryRun::serveTxn(std::uint32_t sid, Cycles arrival,
                      const timing::OramTransaction &txn)
{
    const SessionRing::Completion c = sched_->serveNow(sid, arrival, txn);
    ++served_;
    lastReal_ = std::max(lastReal_, c.completion.done);
}

bool
RecoveryRun::serveOne()
{
    tcoram_assert(started_, "start() or restoreFrom() first");
    if (next_ == plan_.size())
        return false;
    const PlannedOp &op = plan_[next_++];
    serveTxn(op.session, op.arrival,
             timing::OramTransaction::real(op.blockId, op.isWrite,
                                           op.session));
    return true;
}

Cycles
RecoveryRun::finish()
{
    while (serveOne()) {
    }
    // The drain horizon is derived from lastReal_, which restoreFrom()
    // reloads — an interrupted-and-restored run and the uninterrupted
    // one compute the identical horizon and hence identical streams.
    const Cycles horizon =
        lastReal_ +
        cfg_.drainSlackPeriods * (cfg_.rate + device_->accessLatency());
    sched_->drainUntil(horizon);
    return horizon;
}

std::string
RecoveryRun::saveTo(const std::string &path) const
{
    ByteWriter w;
    w.b(started_);
    w.u64(served_);
    w.u64(lastReal_);
    w.u64(next_);
    w.u64(probeArrival_.size());
    for (const Cycles a : probeArrival_)
        w.u64(a);
    device_->saveState(w);
    sched_->saveState(w);
    return saveCheckpoint(path, w.data());
}

std::string
RecoveryRun::restoreFrom(const std::string &path)
{
    tcoram_assert(!started_,
                  "restore must target a freshly constructed run");
    std::vector<std::uint8_t> payload;
    if (std::string err = loadCheckpoint(path, payload); !err.empty())
        return err;
    ByteReader r(payload);
    const bool started = r.b();
    const std::uint64_t served = r.u64();
    const Cycles last_real = r.u64();
    const std::uint64_t next = r.u64();
    const std::uint64_t sessions = r.u64();
    if (sessions != probeArrival_.size())
        return "checkpoint: snapshot has " + std::to_string(sessions) +
               " sessions, this configuration " +
               std::to_string(probeArrival_.size());
    if (next > plan_.size())
        return "checkpoint: snapshot backlog cursor " +
               std::to_string(next) + " is past this configuration's " +
               std::to_string(plan_.size()) + " transactions";
    started_ = started;
    served_ = served;
    lastReal_ = last_real;
    next_ = next;
    for (Cycles &a : probeArrival_)
        a = r.u64();
    device_->restoreState(r);
    if (std::string err = sched_->restoreState(r); !err.empty())
        return "checkpoint: " + err;
    if (!r.atEnd())
        return std::string("checkpoint: payload does not match this "
                           "configuration (decode ") +
               (r.ok() ? "left trailing bytes)" : "overran)");
    return {};
}

std::vector<RecoveryRun::Event>
RecoveryRun::shardStream(std::uint32_t i) const
{
    const timing::RecordingOramDevice *rec = device_->recorder(i);
    tcoram_assert(rec != nullptr, "recovery runs always record");
    std::vector<Event> out;
    out.reserve(rec->records().size());
    for (const auto &r : rec->records())
        out.push_back(
            {r.completion.start,
             r.kind == timing::OramTransaction::Kind::Real});
    return out;
}

std::uint64_t
RecoveryRun::faultsInjected() const
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < device_->shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &device_->innerDevice(i)))
            n += dev->faultsInjected();
    return n;
}

std::uint64_t
RecoveryRun::faultsDetected() const
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < device_->shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &device_->innerDevice(i)))
            n += dev->faultsDetected();
    return n;
}

std::uint64_t
RecoveryRun::faultsRecovered() const
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < device_->shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &device_->innerDevice(i)))
            n += dev->faultsRecovered();
    return n;
}

std::uint64_t
RecoveryRun::retriesIssued() const
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < device_->shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &device_->innerDevice(i)))
            n += dev->retriesIssued();
    return n;
}

std::uint64_t
RecoveryRun::recoverySlots() const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < sched_->shardCount(); ++i)
        n += sched_->shard(i).enforcer().counters().recoverySlots();
    return n;
}

std::uint64_t
RecoveryRun::evictionsIssued() const
{
    return device_->evictionsIssued();
}

std::uint64_t
RecoveryRun::verifyPayloads(std::uint64_t probes)
{
    if (cfg_.deviceKind != "functional")
        return 0; // timing backends move no payloads
    tcoram_assert(started_ && next_ == plan_.size(),
                  "probe after the backlog is drained");
    const std::uint64_t bytes = device_->shardConfig().blockBytes;
    std::vector<std::uint8_t> wrote(bytes);
    std::vector<std::uint8_t> read(bytes);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < probes; ++i) {
        const auto s = static_cast<std::uint32_t>(i % cfg_.sessions);
        const std::uint64_t id = probeBlockId(i);
        for (std::uint64_t j = 0; j < bytes; ++j)
            wrote[j] = static_cast<std::uint8_t>(
                mixSeed(cfg_.seed, i * bytes + j));
        std::fill(read.begin(), read.end(), 0);

        // Write then read back-to-back: each is served to completion
        // before the call returns, so the span views stay valid.
        timing::OramTransaction wt =
            timing::OramTransaction::real(id, /*is_write=*/true, s);
        wt.data = wrote;
        serveTxn(s, probeArrival_[s]++, wt);

        timing::OramTransaction rt =
            timing::OramTransaction::real(id, /*is_write=*/false, s);
        rt.out = read;
        serveTxn(s, probeArrival_[s]++, rt);

        if (read != wrote)
            ++mismatches;
    }
    return mismatches;
}

std::string
RecoveryRun::csvHeader()
{
    return "kind,shards,sessions,txns_per_session,rate,fault_spec,"
           "served,last_real,faults_injected,faults_detected,"
           "faults_recovered,retries,recovery_slots";
}

std::string
RecoveryRun::csvRow() const
{
    std::ostringstream os;
    os << cfg_.deviceKind << ',' << cfg_.shards << ',' << cfg_.sessions
       << ',' << cfg_.txnsPerSession << ',' << cfg_.rate << ','
       << (cfg_.fault.enabled() ? cfg_.fault.toString() : "none") << ','
       << served_ << ',' << lastReal_ << ',' << faultsInjected() << ','
       << faultsDetected() << ',' << faultsRecovered() << ','
       << retriesIssued() << ',' << recoverySlots();
    return os.str();
}

} // namespace tcoram::sim
