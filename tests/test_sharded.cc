/**
 * @file
 * Sharded ORAM device array: deterministic PRF routing (cross-run,
 * cross-platform pinned values — the reason the router is AES-based
 * and not std::hash), near-uniform shard histograms, the M = 1
 * transparency claim (bit-identical to the bare device), per-shard
 * observable-stream periodicity and session-count independence under
 * the shard-aware scheduler, composed admission/monitoring across M
 * streams, config validation, and the full-system sharded run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/shard_worker.hh"
#include "timing/leakage.hh"
#include "workload/spec_suite.hh"

using namespace tcoram;

namespace {

oram::OramConfig
tinyConfig()
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    return c;
}

} // namespace

TEST(ShardRouter, PinnedAssignmentsAreCrossRunDeterministic)
{
    // Golden shard assignments: AES under a seed-derived key, so the
    // same on every platform, compiler and crypto backend (the engine
    // KATs pin cross-backend equality). If these change, reproducible
    // sharded runs break — that is a bug, not a fixture to regenerate.
    const oram::ShardRouter r8(0x7e57, 8);
    const std::vector<std::uint32_t> expect8 = {4, 1, 2, 1, 1, 7, 4, 7,
                                                4, 4, 3, 2, 7, 2, 4, 7};
    for (std::uint64_t i = 0; i < expect8.size(); ++i)
        EXPECT_EQ(r8.shardOf(i), expect8[i]) << "block " << i;

    const oram::ShardRouter r4(1, 4);
    const std::vector<std::uint32_t> expect4 = {1, 3, 1, 1, 2, 0, 3, 1};
    for (std::uint64_t i = 0; i < expect4.size(); ++i)
        EXPECT_EQ(r4.shardOf(i), expect4[i]) << "block " << i;

    // A second instance under the same seed is the same function.
    const oram::ShardRouter again(0x7e57, 8);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(again.shardOf(i), r8.shardOf(i));
}

TEST(ShardRouter, EveryBlockMapsToExactlyOneShardNearUniformly)
{
    const std::uint32_t shards = 8;
    const std::uint64_t n = 1 << 15;
    const oram::ShardRouter router(99, shards);
    std::vector<std::uint64_t> histogram(shards, 0);
    for (std::uint64_t id = 0; id < n; ++id) {
        const std::uint32_t s = router.shardOf(id);
        ASSERT_LT(s, shards);
        // Stable: the id maps to the same shard every time it is asked.
        ASSERT_EQ(router.shardOf(id), s);
        ++histogram[s];
    }
    const double expect = static_cast<double>(n) / shards;
    for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_GT(static_cast<double>(histogram[s]), 0.90 * expect)
            << "shard " << s << " underloaded";
        EXPECT_LT(static_cast<double>(histogram[s]), 1.10 * expect)
            << "shard " << s << " overloaded";
    }
}

TEST(ShardedOramDevice, OneShardIsBitIdenticalToTheBareDevice)
{
    const auto cfg = tinyConfig();
    dram::DramModel mem_bare{dram::DramConfig{}};
    dram::DramModel mem_arr{dram::DramConfig{}};
    Rng rng_bare(9), rng_arr(9);
    oram::TimingOramDevice bare(cfg, mem_bare, rng_bare);
    oram::OramDeviceSpec inner; // timing
    oram::ShardedOramDevice arr(inner, cfg, 1, /*route_seed=*/5, mem_arr,
                                rng_arr);

    EXPECT_EQ(arr.shardCount(), 1u);
    EXPECT_EQ(arr.accessLatency(), bare.accessLatency());
    EXPECT_EQ(arr.bytesPerAccess(), bare.bytesPerAccess());
    EXPECT_EQ(arr.shardConfig().numBlocks, cfg.numBlocks);

    Cycles t = 0;
    for (int k = 0; k < 40; ++k) {
        const auto txn = (k % 3 == 0)
                             ? timing::OramTransaction::dummy()
                             : timing::OramTransaction::real(k * 17, k % 2);
        const auto ca = arr.submit(t, txn);
        const auto cb = bare.submit(t, txn);
        ASSERT_EQ(ca.start, cb.start) << "txn " << k;
        ASSERT_EQ(ca.done, cb.done) << "txn " << k;
        ASSERT_EQ(ca.bytesMoved, cb.bytesMoved) << "txn " << k;
        ASSERT_EQ(ca.cryptoBytes, cb.cryptoBytes) << "txn " << k;
        ASSERT_EQ(ca.cryptoCalls, cb.cryptoCalls) << "txn " << k;
        t = ca.done / 2; // mid-flight resubmission exercises busy-wait
    }
    EXPECT_EQ(arr.realAccesses(), bare.realAccesses());
    EXPECT_EQ(arr.dummyAccesses(), bare.dummyAccesses());
}

TEST(ShardedOramDevice, RealsLandExactlyOnTheRoutedShard)
{
    const auto cfg = tinyConfig();
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(3);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice arr(inner, cfg, 4, /*route_seed=*/11, mem, rng,
                                /*record=*/true);

    std::vector<std::uint64_t> expect(4, 0);
    Cycles t = 0;
    for (std::uint64_t id = 0; id < 64; ++id) {
        ++expect[arr.shardOf(id)];
        t = arr.submit(t, timing::OramTransaction::real(id)).done;
    }
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(arr.shard(s).realAccesses(), expect[s]) << "shard " << s;
        total += arr.shard(s).realAccesses();
        // Every recorded real on this shard is one the router sent here.
        for (const auto &rec : arr.recorder(s)->records())
            EXPECT_EQ(rec.kind, timing::OramTransaction::Kind::Real);
    }
    EXPECT_EQ(total, 64u) << "each block served by exactly one shard";
    EXPECT_EQ(arr.realAccesses(), 64u);
}

TEST(ShardedOramDevice, FunctionalShardsRoundTripData)
{
    auto cfg = tinyConfig();
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(21);
    oram::OramDeviceSpec inner;
    inner.kind = "functional";
    inner.keySeed = 77;
    oram::ShardedOramDevice arr(inner, cfg, 2, /*route_seed=*/13, mem, rng);

    std::vector<std::uint8_t> out(cfg.blockBytes, 0);
    Cycles t = 0;
    // Blocks spread over both shards; shard-local id compaction keeps
    // distinct globals distinct inside each subtree.
    for (std::uint64_t id = 100; id < 116; ++id) {
        std::vector<std::uint8_t> payload(cfg.blockBytes);
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = static_cast<std::uint8_t>(id + 3 * i);
        auto wr = timing::OramTransaction::real(id, /*is_write=*/true);
        wr.data = payload;
        t = arr.submit(t, wr).done;

        auto rd = timing::OramTransaction::real(id, /*is_write=*/false);
        rd.out = out;
        t = arr.submit(t, rd).done;
        EXPECT_EQ(out, payload) << "block " << id;
    }
    EXPECT_EQ(arr.shard(0).realAccesses() + arr.shard(1).realAccesses(),
              32u);
}

namespace {

constexpr Cycles kShardRate = 500;

/** Sharded scheduler harness over recorded timing subtrees. */
struct ShardedHarness
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng{42};
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice device;
    timing::RateSet rates{std::vector<Cycles>{kShardRate}};
    timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    timing::RateLearner learner{rates};
    protocol::LeakageParams params;
    sim::RingScheduler scheduler;

    explicit ShardedHarness(std::uint32_t shards,
                            oram::PathMode mode = oram::PathMode::Sync,
                            Cycles rate = kShardRate,
                            oram::EvictionConfig evict = {})
        : inner(specWithMode(mode, evict)),
          device(inner, tinyConfig(), shards, /*route_seed=*/17, mem, rng,
                 /*record=*/true),
          rates(std::vector<Cycles>{rate}),
          params(singleRateParams()),
          scheduler(device, rates, sched, learner, rate, params,
                    backlogOptions())
    {
    }

    /** Lane deep enough for every open-loop backlog queued here. */
    static sim::RingScheduler::Options
    backlogOptions()
    {
        sim::RingScheduler::Options o;
        o.ringCapacity = 4096;
        return o;
    }

    void
    submit(std::uint32_t sid, Cycles arrival, timing::OramTransaction txn)
    {
        ASSERT_TRUE(scheduler.trySubmit(sid, arrival, txn).has_value());
    }

    static oram::OramDeviceSpec
    specWithMode(oram::PathMode mode, oram::EvictionConfig evict = {})
    {
        oram::OramDeviceSpec s;
        s.pathMode = mode;
        s.evictionPolicy = evict.policy;
        s.evictionBudget = evict.budget;
        return s;
    }

    static protocol::LeakageParams
    singleRateParams()
    {
        protocol::LeakageParams p;
        p.rateCount = 1; // static rate: 0 bits per stream
        return p;
    }
};

/** Per-shard observable start streams after a session-dependent load. */
std::vector<std::vector<Cycles>>
shardStreams(std::uint32_t shards, std::size_t n_sessions, Cycles horizon,
             oram::PathMode mode = oram::PathMode::Sync)
{
    ShardedHarness h(shards, mode);
    for (std::size_t s = 0; s < n_sessions; ++s)
        h.scheduler.openSession(100 + s);
    // Deliberately different per-session arrival patterns: bursty,
    // sparse, phase-shifted — no shard's stream may care.
    for (std::size_t s = 0; s < n_sessions; ++s) {
        const Cycles stride = 700 + 400 * s;
        std::uint64_t k = 0;
        for (Cycles t = 50 * s; t < horizon / 4; t += stride)
            h.submit(static_cast<std::uint32_t>(s), t,
                               timing::OramTransaction::real(
                                   s * 1000 + 31 * k++));
    }
    h.scheduler.runUntilIdle();
    h.scheduler.drainUntil(horizon);
    std::vector<std::vector<Cycles>> streams;
    for (std::uint32_t i = 0; i < shards; ++i)
        streams.push_back(h.device.recorder(i)->startCycles());
    return streams;
}

} // namespace

TEST(ShardedScheduler, PerShardStreamsArePeriodicAndSessionCountBlind)
{
    const std::uint32_t shards = 3;
    const Cycles horizon = 300'000;
    const auto one = shardStreams(shards, 1, horizon);
    const auto four = shardStreams(shards, 4, horizon);

    ShardedHarness probe(shards); // per-shard OLATs for the periods
    for (std::uint32_t i = 0; i < shards; ++i) {
        const Cycles period =
            kShardRate + probe.device.shard(i).accessLatency();
        ASSERT_GE(one[i].size(), 10u) << "shard " << i;
        for (std::size_t j = 1; j < one[i].size(); ++j)
            ASSERT_EQ(one[i][j] - one[i][j - 1], period)
                << "shard " << i << " gap " << j;
        // An adversary watching any shard cannot tell 1 client from 4.
        EXPECT_EQ(one[i], four[i]) << "shard " << i;
    }
}

TEST(ShardedScheduler, AsyncShardStreamsStayExactlyPeriodic)
{
    // Under the split-transaction DRAM mode every shard's enforced
    // stream must remain exactly periodic: the OLAT shrinks to the
    // read phase, and the service gap becomes
    // max(rate + OLAT, occupancy) — constant, whatever the sessions
    // do. An adversary still cannot distinguish 1 client from 4.
    const std::uint32_t shards = 3;
    const Cycles horizon = 300'000;
    const auto one =
        shardStreams(shards, 1, horizon, oram::PathMode::Pipelined);
    const auto four =
        shardStreams(shards, 4, horizon, oram::PathMode::Pipelined);

    ShardedHarness probe(shards, oram::PathMode::Pipelined);
    for (std::uint32_t i = 0; i < shards; ++i) {
        const auto &dev = probe.device.shard(i);
        ASSERT_LT(dev.accessLatency(), dev.occupancyPerAccess())
            << "shard " << i << " should calibrate a write-back tail";
        const Cycles period =
            std::max(kShardRate + dev.accessLatency(),
                     dev.occupancyPerAccess());
        ASSERT_GE(one[i].size(), 10u) << "shard " << i;
        for (std::size_t j = 1; j < one[i].size(); ++j)
            ASSERT_EQ(one[i][j] - one[i][j - 1], period)
                << "shard " << i << " gap " << j;
        EXPECT_EQ(one[i], four[i]) << "shard " << i;
    }
}

TEST(ShardedScheduler, EvictionKeepsShardStreamsPeriodicAndSessionBlind)
{
    // Background eviction engine on, wide-rate regime: every shard
    // must keep the exact rate + OLAT cadence while evictions drain
    // through the enforced gaps, and no shard's stream may reveal the
    // session count. The rate is the deepest shard's occupancy so one
    // eviction fits every gap on every shard.
    const std::uint32_t shards = 3;
    const Cycles horizon = 300'000;
    ShardedHarness probe(shards, oram::PathMode::Pipelined);
    Cycles rate = 0;
    for (std::uint32_t i = 0; i < shards; ++i)
        rate = std::max(rate, probe.device.shard(i).occupancyPerAccess());
    ASSERT_GT(rate, 0u);

    const oram::EvictionConfig evict{oram::EvictionPolicy::Gap, 16};
    struct Run
    {
        std::vector<std::vector<Cycles>> streams;
        std::uint64_t evictions = 0;
    };
    auto run = [&](std::size_t n_sessions) {
        ShardedHarness h(shards, oram::PathMode::Pipelined, rate, evict);
        for (std::size_t s = 0; s < n_sessions; ++s)
            h.scheduler.openSession(100 + s);
        for (std::size_t s = 0; s < n_sessions; ++s) {
            const Cycles stride = 700 + 400 * s;
            std::uint64_t k = 0;
            for (Cycles t = 50 * s; t < horizon / 4; t += stride)
                h.submit(static_cast<std::uint32_t>(s), t,
                                   timing::OramTransaction::real(
                                       s * 1000 + 31 * k++));
        }
        h.scheduler.runUntilIdle();
        h.scheduler.drainUntil(horizon);
        Run out;
        for (std::uint32_t i = 0; i < shards; ++i)
            out.streams.push_back(h.device.recorder(i)->startCycles());
        out.evictions = h.device.evictionsIssued();
        return out;
    };
    const auto one = run(1);
    const auto four = run(4);
    EXPECT_GT(one.evictions, 0u) << "gaps this wide must drain debt";

    for (std::uint32_t i = 0; i < shards; ++i) {
        const Cycles period =
            rate + probe.device.shard(i).accessLatency();
        ASSERT_GE(one.streams[i].size(), 10u) << "shard " << i;
        for (std::size_t j = 1; j < one.streams[i].size(); ++j)
            ASSERT_EQ(one.streams[i][j] - one.streams[i][j - 1], period)
                << "shard " << i << " gap " << j;
        EXPECT_EQ(one.streams[i], four.streams[i]) << "shard " << i;
    }
}

TEST(ShardedScheduler, BacklogDrainsFasterWithMoreShards)
{
    auto span_of = [](std::uint32_t shards) {
        ShardedHarness h(shards);
        h.scheduler.openSession(7);
        for (std::uint64_t k = 0; k < 256; ++k)
            h.submit(0, k, timing::OramTransaction::real(k * 13));
        return h.scheduler.runUntilIdle();
    };
    const Cycles one = span_of(1);
    const Cycles four = span_of(4);
    // Strictly better than 3x: four subtree streams serve the backlog
    // concurrently (and shallower subtrees have smaller OLAT).
    EXPECT_LT(four, one / 3);
}

TEST(ShardedScheduler, AdmissionUsesTheComposedLeakageBound)
{
    ShardedHarness h(4);
    // Override the harness's single-rate params: rebuild a scheduler
    // whose configuration leaks 32 bits per stream (paper R4/E4), so
    // the 4-shard composed bound is 128 bits.
    protocol::LeakageParams params; // paper defaults
    ASSERT_DOUBLE_EQ(params.oramTimingBits(), 32.0);
    params.shards = 4;
    ASSERT_DOUBLE_EQ(params.oramTimingBits(), 128.0);

    sim::RingScheduler sched(h.device, h.rates, h.sched, h.learner,
                             kShardRate, params);
    const auto single_ok = sched.openSession(1, 33.0);  // < composed
    const auto composed_ok = sched.openSession(2, 129.0);
    const auto open = sched.openSession(3);
    EXPECT_FALSE(sched.sessionAdmitted(single_ok))
        << "a budget that only covers ONE stream must be rejected";
    EXPECT_TRUE(sched.sessionAdmitted(composed_ok));
    EXPECT_TRUE(sched.sessionAdmitted(open));
    ASSERT_NE(sched.monitor(), nullptr);
    EXPECT_DOUBLE_EQ(sched.monitor()->limit(), 129.0);
}

TEST(ShardedScheduler, SharedMonitorBoundsTheSumAcrossShards)
{
    // 4 shards, |R| = 4 (2 bits per free decision), tiny epochs: the
    // composed budget must bound the SUM of free decisions over all
    // shard enforcers, wherever they land.
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(42);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice device(inner, tinyConfig(), 4, 17, mem, rng);
    timing::RateSet rates(4);
    timing::EpochSchedule schedule(2048, 2, Cycles{1} << 40);
    timing::RateLearner learner(rates);

    protocol::LeakageParams params;
    params.rateCount = 4;
    params.epochGrowth = 2;
    params.epoch0 = Cycles{1} << 20;
    params.tmax = Cycles{1} << 30;
    const double budget = params.oramTimingBits() * 4 + 1.0; // composed + 1

    sim::RingScheduler sched(device, rates, schedule, learner, 256, params);
    sched.openSession(1, budget);
    for (int k = 0; k < 400; ++k)
        ASSERT_TRUE(
            sched.trySubmit(0, k * 300, timing::OramTransaction::real(k * 7))
                .has_value());
    sched.runUntilIdle();
    sched.drainUntil(Cycles{40'000'000});

    ASSERT_NE(sched.monitor(), nullptr);
    EXPECT_LE(sched.monitor()->bitsConsumed(), budget + 1e-9);
    unsigned pinned = 0;
    double realized = 0.0;
    for (std::size_t i = 0; i < sched.shardCount(); ++i) {
        const auto &enf = sched.shard(i).enforcer();
        pinned += enf.pinnedDecisions();
        realized += timing::LeakageAccountant::oramTimingBits(
            rates.size(), enf.currentEpoch());
    }
    EXPECT_GT(pinned, 0u)
        << "the scaled schedule must exhaust the composed budget";
    // Bits actually consumed = realized decisions minus the pinned
    // (free-decision-free) ones; the monitor's ledger is their sum.
    EXPECT_DOUBLE_EQ(sched.monitor()->bitsConsumed(),
                     realized - 2.0 * pinned);
}

TEST(SystemConfigSharding, ShardCountIsValidated)
{
    auto ok = sim::SystemConfig::dynamicScheme(4, 4);
    ok.oramShards = sim::SystemConfig::kMaxOramShards;
    EXPECT_EQ(ok.shardCount(), sim::SystemConfig::kMaxOramShards);
    EXPECT_EXIT(
        {
            auto bad = sim::SystemConfig::dynamicScheme(4, 4);
            bad.oramShards = 0;
            bad.shardCount();
        },
        ::testing::ExitedWithCode(1), "oramShards");
    EXPECT_EXIT(
        {
            auto bad = sim::SystemConfig::dynamicScheme(4, 4);
            bad.oramShards = sim::SystemConfig::kMaxOramShards + 1;
            bad.shardCount();
        },
        ::testing::ExitedWithCode(1), "oramShards");
}

/** Full-system sharded run: per-shard enforcers drive the subtree
 *  devices, and the reported leakage composes over the shards. */
TEST(SecureProcessorSharded, RunsWithComposedLeakageAccounting)
{
    auto cfg = sim::SystemConfig::dynamicScheme(4, 4);
    cfg.oram = oram::OramConfig::benchConfig();
    cfg.epoch0 = Cycles{1} << 16;
    cfg.ipcWindow = 50'000;
    cfg.oramShards = 4;

    const auto prof = workload::specProfile("mcf");
    sim::SecureProcessor proc(cfg, prof);
    ASSERT_EQ(proc.shardEnforcers().size(), 4u);
    ASSERT_EQ(proc.enforcer(), nullptr);
    ASSERT_STREQ(proc.oramDevice()->kind(), "sharded");

    const auto r = proc.run(60'000, 120'000);
    EXPECT_GT(r.oramReal, 0u);
    EXPECT_GT(r.oramDummy, 0u);

    double expect_bits = 0.0;
    for (const auto &enf : proc.shardEnforcers())
        expect_bits += timing::LeakageAccountant::oramTimingBits(
            4, enf->currentEpoch());
    EXPECT_DOUBLE_EQ(r.simLeakageBits, expect_bits);
    EXPECT_DOUBLE_EQ(r.paperLeakageBits,
                     4.0 * timing::LeakageAccountant::paperConfigBits(4, 4));
}

/**
 * The wrapper-transparency claim at system scale: a whole run through
 * the M = 1 sharded array charges bit-identical stats to the bare
 * timing device (the golden-stats test pins the same claim against
 * the checked-in fig6 fixtures).
 */
TEST(SecureProcessorSharded, OneShardRunMatchesTheBareDeviceRun)
{
    for (const char *scheme : {"base_oram", "dynamic"}) {
        auto cfg = std::string(scheme) == "base_oram"
                       ? sim::SystemConfig::baseOram()
                       : sim::SystemConfig::dynamicScheme(4, 4);
        cfg.oram = oram::OramConfig::benchConfig();
        cfg.epoch0 = Cycles{1} << 16;
        cfg.ipcWindow = 50'000;

        sim::SystemConfig bare = cfg;
        bare.oramDevice = "timing";
        sim::SystemConfig arr = cfg;
        arr.oramDevice = "sharded"; // engages the wrapper at M = 1
        arr.oramShards = 1;

        const auto prof = workload::specProfile("h264");
        const auto rb = sim::runOne(bare, prof, 60'000, 120'000);
        const auto ra = sim::runOne(arr, prof, 60'000, 120'000);
        EXPECT_EQ(sim::csvRow(rb), sim::csvRow(ra))
            << scheme << ": 1-shard array drifted from the bare device";
    }
}
