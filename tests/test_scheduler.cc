/**
 * @file
 * Multi-session scheduling over one enforced device: the trace-level
 * security invariant (the enforced device stream is ONE periodic
 * access sequence whose gaps depend only on the rate — never on
 * session count, arrival pattern or payload), FIFO/fairness behaviour,
 * the §5 per-session admission handshake, and the shared
 * tightest-budget leakage monitor — all through the ring scheduler
 * over a one-shard array.
 */

#include <gtest/gtest.h>

#include "dram/dram_model.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

using namespace tcoram;

namespace {

constexpr Cycles kRate = 500;

oram::OramConfig
tinyConfig()
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    return c;
}

protocol::LeakageParams
staticRateParams()
{
    protocol::LeakageParams p;
    p.rateCount = 1; // static rate: 0 ORAM-timing bits
    return p;
}

/** A one-shard recorded timing array behind a ring scheduler whose
 *  lane holds any backlog these tests queue. */
struct Harness
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng{42};
    oram::ShardedOramDevice dev;
    timing::RateSet rates;
    timing::EpochSchedule sched;
    timing::RateLearner learner{rates};
    sim::RingScheduler scheduler;

    explicit Harness(
        timing::RateSet rate_set = timing::RateSet{std::vector<Cycles>{kRate}},
        timing::EpochSchedule schedule = {Cycles{1} << 30, 2,
                                          Cycles{1} << 40},
        Cycles initial_rate = kRate,
        const protocol::LeakageParams &params = staticRateParams())
        : dev(oram::OramDeviceSpec{}, tinyConfig(), 1, /*route_seed=*/5,
              mem, rng, /*record=*/true),
          rates(std::move(rate_set)), sched(schedule),
          scheduler(dev, rates, sched, learner, initial_rate, params,
                    options())
    {
    }

    static sim::RingScheduler::Options
    options()
    {
        sim::RingScheduler::Options o;
        o.ringCapacity = 4096;
        return o;
    }

    void
    submit(std::uint32_t sid, Cycles arrival, std::uint64_t block)
    {
        ASSERT_TRUE(scheduler
                        .trySubmit(sid, arrival,
                                   timing::OramTransaction::real(block))
                        .has_value());
    }

    Cycles period() const { return kRate + dev.accessLatency(); }
};

/**
 * Drive @p n_sessions with session-dependent arrival patterns, then
 * drain well past the heaviest possible backlog so every configuration
 * observes the same number of enforced slots. Returns the observable
 * start-cycle stream.
 */
std::vector<Cycles>
observableStream(std::size_t n_sessions, Cycles horizon, Cycles *period)
{
    Harness h;
    for (std::size_t s = 0; s < n_sessions; ++s)
        h.scheduler.openSession(100 + s);
    // Deliberately different per-session arrival patterns: bursty,
    // sparse, phase-shifted — the observable stream must not care.
    for (std::size_t s = 0; s < n_sessions; ++s) {
        const Cycles stride = 700 + 400 * s;
        for (Cycles t = 50 * s; t < 100'000; t += stride)
            h.submit(static_cast<std::uint32_t>(s), t, s * 1000);
    }
    h.scheduler.runUntilIdle();
    EXPECT_LT(h.scheduler.lastCompletion(), horizon)
        << "the backlog must drain before the common horizon";
    h.scheduler.drainUntil(horizon);
    *period = h.period();
    return h.dev.recorder(0)->startCycles();
}

} // namespace

TEST(Scheduler, EnforcedStreamIsPeriodicWhateverTheSessionCount)
{
    // Horizon far beyond the heaviest backlog's last real completion
    // (~500 transactions x one slot period), so every session count
    // drains to the same slot count.
    const Cycles horizon = 4'000'000;
    Cycles period = 0;
    const auto one = observableStream(1, horizon, &period);
    const auto three = observableStream(3, horizon, &period);
    const auto eight = observableStream(8, horizon, &period);

    // Gaps depend only on the rate: every access starts exactly
    // (rate + OLAT) after the previous start.
    ASSERT_GE(one.size(), 10u);
    for (std::size_t i = 1; i < one.size(); ++i)
        EXPECT_EQ(one[i] - one[i - 1], period) << "gap " << i;

    // And the stream is identical across session counts: an adversary
    // watching the device cannot tell 1 client from 8.
    EXPECT_EQ(one, three);
    EXPECT_EQ(one, eight);
}

TEST(Scheduler, PerSessionFifoAndStatsAreKept)
{
    Harness h;
    h.scheduler.openSession(1);
    h.scheduler.openSession(2);
    h.submit(0, 0, 10);
    h.submit(0, 10, 11);
    h.submit(1, 5, 20);
    h.scheduler.runUntilIdle();

    std::vector<std::uint32_t> order;
    std::vector<Cycles> dones;
    sim::SessionRing::Completion c;
    while (h.scheduler.lane(0).popCompletion(c)) {
        order.push_back(c.sessionId);
        dones.push_back(c.completion.done);
    }
    // Round-robin from the cursor: s0 (arrival 0), then s1, then s0.
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0}));
    // Completions ride consecutive enforced slots.
    ASSERT_EQ(dones.size(), 3u);
    EXPECT_EQ(dones[1] - dones[0], h.period());
    EXPECT_EQ(dones[2] - dones[1], h.period());

    const auto &s0 = h.scheduler.stats(0);
    const auto &s1 = h.scheduler.stats(1);
    EXPECT_EQ(s0.submitted, 2u);
    EXPECT_EQ(s0.completed, 2u);
    EXPECT_EQ(s1.completed, 1u);
    EXPECT_GT(s0.totalLatency, 0u);
    EXPECT_GE(s0.maxLatency, s0.totalLatency / 2);
    EXPECT_EQ(h.scheduler.fairnessRatio(), 2.0);
}

TEST(Scheduler, BackloggedSessionsShareTheDeviceFairly)
{
    Harness h;
    const std::size_t n = 6;
    for (std::size_t s = 0; s < n; ++s)
        h.scheduler.openSession(s);
    // Everybody arrives at cycle 0 with the same backlog: round-robin
    // must serve them in lockstep.
    for (int k = 0; k < 20; ++k)
        for (std::size_t s = 0; s < n; ++s)
            h.submit(static_cast<std::uint32_t>(s), 0, k);
    h.scheduler.runUntilIdle();
    EXPECT_EQ(h.scheduler.fairnessRatio(), 1.0);
    for (std::size_t s = 0; s < n; ++s)
        EXPECT_EQ(h.scheduler.stats(static_cast<std::uint32_t>(s)).completed,
                  20u);
}

TEST(Scheduler, AdmissionRejectsBudgetsBelowTheConfiguration)
{
    protocol::LeakageParams params;
    params.rateCount = 4;
    params.epochGrowth = 2;
    params.epoch0 = Cycles{1} << 20;
    params.tmax = Cycles{1} << 40;
    const double bits = params.oramTimingBits();
    ASSERT_GT(bits, 0.0);

    Harness h(timing::RateSet(4), {Cycles{1} << 20, 2, Cycles{1} << 40},
              1000, params);
    sim::RingScheduler &scheduler = h.scheduler;
    const auto tight = scheduler.openSession(1, bits / 2.0);
    const auto roomy = scheduler.openSession(2, bits + 8.0);
    const auto open = scheduler.openSession(3); // unlimited
    EXPECT_FALSE(scheduler.sessionAdmitted(tight));
    EXPECT_TRUE(scheduler.sessionAdmitted(roomy));
    EXPECT_TRUE(scheduler.sessionAdmitted(open));

    // The tightest admitted finite budget guards the shared device.
    ASSERT_NE(scheduler.monitor(), nullptr);
    EXPECT_DOUBLE_EQ(scheduler.monitor()->limit(), bits + 8.0);

    EXPECT_EXIT(scheduler.trySubmit(tight, 0,
                                    timing::OramTransaction::real(1)),
                ::testing::ExitedWithCode(1), "not admitted");
}

TEST(Scheduler, SharedMonitorPinsTheRateAtTheTightestBudget)
{
    // Admission happens at the paper-constant schedule (32 bits for
    // R4/E4); the run itself uses a scaled epoch schedule, so the
    // admitted 33-bit session's monitor must pin the shared device
    // once the realized decisions approach its budget (§2.1).
    const protocol::LeakageParams params; // paper defaults: 32 bits
    ASSERT_DOUBLE_EQ(params.oramTimingBits(), 32.0);

    // 2 bits per free decision.
    Harness h(timing::RateSet(4), {64, 2, Cycles{1} << 40}, 256, params);
    sim::RingScheduler &scheduler = h.scheduler;
    scheduler.openSession(1);        // unlimited
    scheduler.openSession(2, 1e6);   // huge
    scheduler.openSession(3, 33.0);  // 16 free decisions — the binding one
    EXPECT_TRUE(scheduler.sessionAdmitted(2));

    // Open-loop demand from every session, then a long drain: the
    // scaled schedule crosses 17+ epoch boundaries.
    for (int k = 0; k < 200; ++k)
        for (std::uint32_t s = 0; s < 3; ++s)
            h.submit(s, k * 700, k);
    scheduler.runUntilIdle();
    scheduler.drainUntil(Cycles{12'000'000});

    const timing::RateEnforcer &enf = scheduler.shard(0).enforcer();
    ASSERT_GT(enf.currentEpoch(), 16u);
    EXPECT_GT(enf.pinnedDecisions(), 0u)
        << "the 33-bit session must pin the shared device's rate";
    ASSERT_NE(scheduler.monitor(), nullptr);
    EXPECT_DOUBLE_EQ(scheduler.monitor()->limit(), 33.0);
    EXPECT_LE(scheduler.monitor()->bitsConsumed(), 33.0 + 1e-9);
    // After the pin, the rate never changes again.
    const auto &d = enf.decisions();
    ASSERT_GE(d.size(), 18u);
    for (std::size_t i = 17; i < d.size(); ++i)
        EXPECT_EQ(d[i].rate, d[16].rate);
}
