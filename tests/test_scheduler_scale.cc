/**
 * @file
 * Million-session scheduler scale-out: SPSC ring wrap-around and
 * backpressure, lane-monotonic token/fence retirement, the
 * N-thread == 1-thread bit-identity contract of the phased-round
 * RingScheduler (per-shard observable streams, session stats, CSV
 * rows — fault-injected recovery included), streams pinned to what the
 * retired dense scheduler produced, the bounded enforcer's exact
 * replay of the unbounded one (recovery slots included), QoS
 * dispatch-policy semantics and their stream-invariance, and the
 * nearest-rank latency percentile against a fully-sorted reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/session_ring.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/rate_enforcer.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

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

protocol::LeakageParams
leakParams(std::size_t rate_count)
{
    protocol::LeakageParams p;
    p.rateCount = rate_count;
    return p;
}

constexpr Cycles kDrainHorizon = Cycles{1} << 18;

/** (sid, arrival, block) programs, interleaved by arrival the way a
 *  real multi-client front end would see them; per-session arrivals
 *  stay non-decreasing (stable sort). */
struct Arrival
{
    std::uint32_t sid;
    Cycles at;
    std::uint64_t block;
};

std::vector<Arrival>
makeWorkload(std::size_t sessions, std::uint64_t seed)
{
    std::vector<Arrival> w;
    for (std::uint32_t sid = 0; sid < sessions; ++sid) {
        const Cycles stride = 500 + 300 * ((sid + seed) % 5);
        for (Cycles t = 40 * sid; t < 30'000; t += stride)
            w.push_back({sid, t, (seed * 7919 + sid * 131 + t) % 1024});
    }
    std::stable_sort(w.begin(), w.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.at < b.at;
                     });
    return w;
}

/** Everything the bit-identity contract pins, in one comparable bag. */
using StatsTuple = std::tuple<std::uint64_t, std::uint64_t, Cycles, Cycles,
                              Cycles, Cycles, Cycles>;

StatsTuple
statsOf(const sim::SessionStats &s, bool with_last_completion)
{
    return {s.submitted,
            s.completed,
            s.firstArrival,
            with_last_completion ? s.lastCompletion : Cycles{0},
            s.totalLatency,
            s.totalSlotWait,
            s.maxLatency};
}

struct RingSetup
{
    std::uint32_t shards = 1;
    unsigned threads = 1;
    timing::DispatchPolicyKind policy =
        timing::DispatchPolicyKind::RoundRobin;
    bool dynamic = false;
    std::size_t sessions = 1;
    std::uint64_t seed = 1;
    std::size_t lanes = 1;
    std::size_t capacity = 4096;
    oram::PathMode pathMode = oram::PathMode::Sync;
    oram::EvictionPolicy evictionPolicy = oram::EvictionPolicy::Off;
    std::uint32_t evictionBudget = 0;
    /** Per-shard backend ("timing" or "functional") and data-fault
     *  model (functional only). */
    std::string kind = "timing";
    dram::FaultSpec fault{};
};

struct RingResult
{
    std::vector<std::vector<Cycles>> streams; ///< per-shard start cycles
    std::vector<StatsTuple> stats;
    std::string csv;
    Cycles last = 0;
    std::uint64_t served = 0;
    /** Completions in pop order, lane-major. */
    std::vector<sim::SessionRing::Completion> completions;
    std::vector<std::uint64_t> fences;
    std::uint64_t evictions = 0;
    /** Functional shards: injected/detected/recovered faults, retries
     *  and enforcer-charged recovery slots, per shard. */
    std::vector<std::vector<std::uint64_t>> faults;
};

std::vector<Cycles>
ringRates(bool dynamic)
{
    return dynamic ? std::vector<Cycles>{400, 800, 1600, 3200}
                   : std::vector<Cycles>{500};
}

RingResult
runRing(const RingSetup &setup)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    inner.kind = setup.kind;
    inner.fault = setup.fault;
    inner.pathMode = setup.pathMode;
    inner.evictionPolicy = setup.evictionPolicy;
    inner.evictionBudget = setup.evictionBudget;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards,
                                /*route_seed=*/5, mem, rng,
                                /*record=*/true);
    const timing::RateSet rates{ringRates(setup.dynamic)};
    const timing::EpochSchedule sched{setup.dynamic ? Cycles{1} << 14
                                                    : Cycles{1} << 30,
                                      2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.lanes = setup.lanes;
    o.ringCapacity = setup.capacity;
    o.threads = setup.threads;
    o.policy = setup.policy;
    sim::RingScheduler rs(dev, rates, sched, learner,
                          setup.dynamic ? 3200 : 500,
                          leakParams(rates.size()), o);

    RingResult r;
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid, -1.0,
                       static_cast<std::uint16_t>(sid % setup.lanes),
                       static_cast<std::uint16_t>(1 + sid % 3),
                       Cycles{100} * sid);

    auto drain = [&] {
        for (std::size_t l = 0; l < setup.lanes; ++l) {
            sim::SessionRing::Completion c;
            while (rs.lane(l).popCompletion(c))
                r.completions.push_back(c);
        }
    };
    for (const auto &a : makeWorkload(setup.sessions, setup.seed)) {
        auto tok =
            rs.trySubmit(a.sid, a.at, timing::OramTransaction::real(a.block));
        while (!tok) {
            // In-flight bound hit: pump the scheduler, drain the
            // completion rings, resubmit — the documented contract.
            rs.runUntilIdle();
            drain();
            tok = rs.trySubmit(a.sid, a.at,
                               timing::OramTransaction::real(a.block));
        }
    }
    rs.runUntilIdle();
    rs.drainUntil(kDrainHorizon);
    drain();

    for (std::uint32_t s = 0; s < setup.shards; ++s)
        r.streams.push_back(dev.recorder(s)->startCycles());
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        r.stats.push_back(statsOf(rs.stats(sid), true));
    r.csv = rs.csv();
    r.last = rs.lastCompletion();
    r.served = rs.servedTotal();
    for (std::size_t l = 0; l < setup.lanes; ++l)
        r.fences.push_back(rs.lane(l).retiredFence());
    r.evictions = dev.evictionsIssued();
    for (std::uint32_t s = 0; s < setup.shards; ++s) {
        const auto *f = dynamic_cast<const oram::FunctionalOramDevice *>(
            &dev.innerDevice(s));
        if (f == nullptr)
            continue;
        r.faults.push_back({f->faultsInjected(), f->faultsDetected(),
                            f->faultsRecovered(), f->retriesIssued(),
                            rs.shard(s).enforcer().counters().recoverySlots()});
    }
    return r;
}

void
expectSameRun(const RingResult &a, const RingResult &b, const char *what)
{
    EXPECT_EQ(a.streams, b.streams) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    EXPECT_EQ(a.csv, b.csv) << what;
    EXPECT_EQ(a.last, b.last) << what;
    EXPECT_EQ(a.served, b.served) << what;
    EXPECT_EQ(a.fences, b.fences) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.faults, b.faults) << what;
    ASSERT_EQ(a.completions.size(), b.completions.size()) << what;
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        const auto &ca = a.completions[i];
        const auto &cb = b.completions[i];
        ASSERT_EQ(ca.token, cb.token) << what << " completion " << i;
        ASSERT_EQ(ca.sessionId, cb.sessionId) << what << " completion " << i;
        ASSERT_EQ(ca.arrival, cb.arrival) << what << " completion " << i;
        ASSERT_EQ(ca.completion.start, cb.completion.start)
            << what << " completion " << i;
        ASSERT_EQ(ca.completion.done, cb.completion.done)
            << what << " completion " << i;
    }
}

/** FNV-1a over the little-endian bytes of a stream's start cycles —
 *  the digest form the pinned legacy streams below are kept in. */
std::uint64_t
streamDigest(const std::vector<Cycles> &starts)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Cycles c : starts)
        for (int i = 0; i < 8; ++i) {
            h ^= (c >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    return h;
}

/** One pinned per-shard stream: length and digest. */
struct PinnedStream
{
    std::size_t events;
    std::uint64_t digest;
};

void
expectPinnedStreams(const RingResult &r,
                    const std::vector<PinnedStream> &pinned,
                    const std::string &what)
{
    ASSERT_EQ(r.streams.size(), pinned.size()) << what;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        EXPECT_EQ(r.streams[i].size(), pinned[i].events)
            << what << " shard " << i;
        EXPECT_EQ(streamDigest(r.streams[i]), pinned[i].digest)
            << what << " shard " << i;
    }
}

/** Nearest-rank quantile over a fully sorted copy — the reference the
 *  nth_element implementations must reproduce exactly. */
Cycles
sortedReference(std::vector<Cycles> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[rank == 0 ? 0 : rank - 1];
}

constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

} // namespace

// --- rings ---

TEST(SpscRing, WrapAroundKeepsFifoOrderForever)
{
    sim::SpscRing<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    int v = -1;
    EXPECT_FALSE(ring.tryPop(v));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "full ring must refuse";

    int next_pop = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(v));
        EXPECT_EQ(v, next_pop++);
    }
    EXPECT_FALSE(ring.tryPop(v));

    // Many times around the buffer with a varying backlog: indices are
    // monotonic uint64s, only the masked slot wraps.
    int next_push = 4;
    for (int round = 0; round < 64; ++round) {
        const int burst = 1 + round % 4;
        for (int i = 0; i < burst; ++i)
            ASSERT_TRUE(ring.tryPush(next_push++));
        for (int i = 0; i < burst; ++i) {
            ASSERT_TRUE(ring.tryPop(v));
            ASSERT_EQ(v, next_pop++);
        }
    }
    EXPECT_EQ(ring.size(), 0u);
}

TEST(SessionRing, TokensAreMonotonicAndInFlightBoundBackpressures)
{
    sim::SessionRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    const auto txn = timing::OramTransaction::real(7);
    for (std::uint64_t t = 1; t <= 4; ++t) {
        const auto tok = ring.trySubmit(0, 10 * t, txn);
        ASSERT_TRUE(tok.has_value());
        EXPECT_EQ(*tok, t) << "lane tokens count 1, 2, 3, ...";
    }
    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "at the in-flight bound the lane must refuse";
    EXPECT_EQ(ring.inFlight(), 4u);

    // The scheduler retiring a transaction is not enough: the bound is
    // producer-observed, so it opens only when the COMPLETION is popped.
    sim::SessionRing::Submission sub;
    ASSERT_TRUE(ring.popSubmission(sub));
    EXPECT_EQ(sub.token, 1u);
    EXPECT_EQ(sub.arrival, 10u);
    ring.pushCompletion({sub.token, sub.sessionId, sub.arrival, {}});
    EXPECT_FALSE(ring.trySubmit(0, 60, txn).has_value());

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_TRUE(ring.isRetired(1));
    EXPECT_FALSE(ring.isRetired(2));
    const auto tok = ring.trySubmit(0, 60, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
}

TEST(SessionRing, FenceAdvancesOnlyThroughContiguousRetirement)
{
    sim::SessionRing ring(8);
    const auto txn = timing::OramTransaction::real(3);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.trySubmit(0, 0, txn).has_value());
    sim::SessionRing::Submission subs[3];
    for (auto &sub : subs)
        ASSERT_TRUE(ring.popSubmission(sub));

    // Shards retire out of order: token 2 first. The fence must hold
    // at 0 until token 1 retires, then jump over the marked window.
    ring.pushCompletion({2, 0, 0, {}});
    ring.pushCompletion({1, 0, 0, {}});
    ring.pushCompletion({3, 0, 0, {}});

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 2u);
    EXPECT_EQ(ring.retiredFence(), 0u);
    EXPECT_FALSE(ring.isRetired(1));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 2u) << "fence jumps the retired window";
    EXPECT_TRUE(ring.isRetired(2));
    EXPECT_FALSE(ring.isRetired(3));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 3u);
    EXPECT_EQ(ring.retiredFence(), 3u);
    EXPECT_EQ(ring.inFlight(), 0u);
}

TEST(SessionRing, FenceGatesResubmissionAfterOutOfOrderDrain)
{
    // Regression: completions push in shard-fold order, not token
    // order, so a producer that pops out-of-order completions and
    // resubmits (the documented backpressure contract) drives the
    // drain count ahead of the fence. Submission must be gated by the
    // FENCE — an in-flight (drain-count) gate would admit a token that
    // aliases a live token's retirement-window slot (token 5 & 3 ==
    // token 1 & 3 at capacity 4).
    sim::SessionRing ring(4);
    const auto txn = timing::OramTransaction::real(1);
    for (std::uint64_t t = 1; t <= 4; ++t)
        ASSERT_TRUE(ring.trySubmit(0, 10 * t, txn).has_value());
    sim::SessionRing::Submission sub;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.popSubmission(sub));

    // A fast shard retires tokens 2..4 while a slow shard still owns
    // token 1.
    ring.pushCompletion({2, 0, 20, {}});
    ring.pushCompletion({3, 0, 30, {}});
    ring.pushCompletion({4, 0, 40, {}});
    sim::SessionRing::Completion c;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(ring.retiredFence(), 0u) << "token 1 still outstanding";
    EXPECT_EQ(ring.inFlight(), 1u);

    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "the fence, not the drain count, must gate submission";

    // Retiring token 1 snaps the fence to 4 and reopens the lane.
    ring.pushCompletion({1, 0, 10, {}});
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 4u);
    const auto tok = ring.trySubmit(0, 50, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
    EXPECT_TRUE(ring.isRetired(4));
    EXPECT_FALSE(ring.isRetired(5));
}

// --- determinism ---

TEST(RingScheduler, WorkerCountIsBitIdentical)
{
    // The tentpole contract: per-shard observable streams, session
    // stats, CSV rows, completion order and fences are a pure function
    // of the submission sequence — never of the worker count. 3 is a
    // deliberate non-divisor stripe width; shards-many workers is the
    // intended deployment.
    struct Case
    {
        std::uint32_t shards;
        timing::DispatchPolicyKind policy;
        std::uint64_t seed;
    };
    const std::vector<Case> cases = {
        {1, timing::DispatchPolicyKind::RoundRobin, 1},
        {1, timing::DispatchPolicyKind::RoundRobin, 2},
        {4, timing::DispatchPolicyKind::RoundRobin, 1},
        {4, timing::DispatchPolicyKind::RoundRobin, 2},
        {4, timing::DispatchPolicyKind::WeightedRoundRobin, 1},
        {4, timing::DispatchPolicyKind::EarliestDeadline, 1},
        {16, timing::DispatchPolicyKind::RoundRobin, 1},
        {16, timing::DispatchPolicyKind::RoundRobin, 2},
    };
    for (const auto &c : cases) {
        RingSetup s;
        s.shards = c.shards;
        s.policy = c.policy;
        s.dynamic = true; // epoch transitions exercise the serial step
        s.sessions = 6;
        s.seed = c.seed;
        s.lanes = 2;

        s.threads = 1;
        const RingResult ref = runRing(s);
        for (const unsigned threads : {3u, c.shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what =
                "shards=" + std::to_string(c.shards) +
                " policy=" + timing::dispatchPolicyName(c.policy) +
                " seed=" + std::to_string(c.seed) +
                " threads=" + std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, EvictionEngineKeepsWorkerCountBitIdentical)
{
    // The background eviction engine must not break the N == 1 worker
    // contract: evictions fire at identical sequence points on the
    // bounded and unbounded enforcer paths, so the per-shard streams,
    // stats and eviction counts stay a pure function of the submission
    // sequence. Pipelined mode is required (evictions retire deferred
    // write-back tails); the dynamic schedule exercises the
    // transition-capped eviction horizon.
    for (const std::uint32_t shards : {1u, 4u}) {
        RingSetup s;
        s.shards = shards;
        s.dynamic = true;
        s.sessions = 6;
        s.lanes = 2;
        s.pathMode = oram::PathMode::Pipelined;
        s.evictionPolicy = oram::EvictionPolicy::Gap;
        s.evictionBudget = 32;

        s.threads = 1;
        const RingResult ref = runRing(s);
        EXPECT_GT(ref.evictions, 0u)
            << "the case must actually exercise the engine";
        for (const unsigned threads : {3u, shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what = "eviction shards=" +
                                     std::to_string(shards) + " threads=" +
                                     std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, SmallRingBackpressureAndWrapAroundStayDeterministic)
{
    // An 8-deep lane under a 100-transaction workload wraps the rings
    // a dozen times and forces the pump-drain-resubmit path; the run
    // must retire every token and stay worker-count independent.
    RingSetup s;
    s.shards = 4;
    s.dynamic = true;
    s.sessions = 3;
    s.seed = 4;
    s.capacity = 8;

    s.threads = 1;
    const RingResult ref = runRing(s);
    s.threads = 4;
    const RingResult got = runRing(s);
    expectSameRun(ref, got, "capacity=8");

    const std::size_t total = makeWorkload(s.sessions, s.seed).size();
    ASSERT_GT(total, 8u * 4u) << "workload must overflow the ring";
    EXPECT_EQ(ref.completions.size(), total);
    EXPECT_EQ(ref.served, total);
    EXPECT_EQ(ref.fences.at(0), total) << "every token retired";

    // Single lane: completion tokens pop in fold order, which for a
    // fully drained run covers exactly 1..N.
    std::vector<std::uint64_t> tokens;
    for (const auto &c : ref.completions)
        tokens.push_back(c.token);
    std::sort(tokens.begin(), tokens.end());
    for (std::size_t i = 0; i < tokens.size(); ++i)
        ASSERT_EQ(tokens[i], i + 1);
}

TEST(RingScheduler, PopOneResubmitBackpressureStaysInWindow)
{
    // The harsher client: on every backpressure stall, pop a SINGLE
    // completion — in shard-fold order, not token order — and resubmit
    // immediately. The drain count runs ahead of the fence whenever
    // the popped token is not the oldest outstanding one; throughout,
    // the fence must equal EXACTLY the contiguous prefix of tokens the
    // producer has popped (a drain-count submission gate lets a
    // resubmitted token alias a live retirement-window slot, which
    // shows up here as the fence jumping over a token never popped),
    // every token must retire exactly once, and the shard streams must
    // stay worker-count independent.
    for (const std::uint64_t seed : {4ull, 9ull}) {
        std::vector<std::vector<Cycles>> streamsByThreads;
        for (const unsigned threads : {1u, 4u}) {
            dram::DramModel mem{dram::DramConfig{}};
            Rng rng(11);
            oram::OramDeviceSpec inner; // timing
            oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/4,
                                        /*route_seed=*/5, mem, rng,
                                        /*record=*/true);
            const timing::RateSet rates{ringRates(true)};
            const timing::EpochSchedule sched{Cycles{1} << 14, 2,
                                              Cycles{1} << 40};
            const timing::RateLearner learner{rates};
            sim::RingScheduler::Options o;
            o.ringCapacity = 8; // many stalls over ~100 transactions
            o.threads = threads;
            sim::RingScheduler rs(dev, rates, sched, learner, 3200,
                                  leakParams(rates.size()), o);
            const std::size_t sessions = 3;
            for (std::uint32_t sid = 0; sid < sessions; ++sid)
                rs.openSession(100 + sid);

            const auto workload = makeWorkload(sessions, seed);
            ASSERT_GT(workload.size(), 8u * 4u) << "must overflow the lane";
            std::vector<std::uint8_t> popped(workload.size() + 2, 0);
            std::uint64_t expectFence = 0;
            std::size_t nPopped = 0;
            bool sawLag = false;
            sim::SessionRing::Completion c;
            const auto notePop = [&] {
                ASSERT_GE(c.token, 1u);
                ASSERT_LE(c.token, workload.size()) << "unknown token";
                ASSERT_FALSE(popped[c.token]) << "token retired twice";
                popped[c.token] = 1;
                ++nPopped;
                while (popped[expectFence + 1])
                    ++expectFence;
                ASSERT_EQ(rs.lane(0).retiredFence(), expectFence)
                    << "fence must track the popped prefix exactly";
                sawLag = sawLag || expectFence + 1 < c.token;
            };
            for (const auto &a : workload) {
                auto tok = rs.trySubmit(
                    a.sid, a.at, timing::OramTransaction::real(a.block));
                while (!tok) {
                    rs.runUntilIdle();
                    if (rs.lane(0).popCompletion(c))
                        notePop();
                    tok = rs.trySubmit(
                        a.sid, a.at, timing::OramTransaction::real(a.block));
                }
            }
            rs.runUntilIdle();
            while (rs.lane(0).popCompletion(c))
                notePop();

            EXPECT_TRUE(sawLag)
                << "workload never drove the fence behind the drain "
                   "count — the scenario under test did not occur";
            EXPECT_EQ(nPopped, workload.size());
            EXPECT_EQ(expectFence, workload.size());
            EXPECT_EQ(rs.lane(0).retiredFence(), workload.size())
                << "fence must reach the last token, threads=" << threads;

            std::vector<Cycles> flat;
            for (std::uint32_t s = 0; s < 4; ++s) {
                const auto &st = dev.recorder(s)->startCycles();
                flat.insert(flat.end(), st.begin(), st.end());
                flat.push_back(0); // shard separator
            }
            streamsByThreads.push_back(std::move(flat));
        }
        EXPECT_EQ(streamsByThreads[0], streamsByThreads[1])
            << "partial-drain backpressure must stay worker-count blind, "
               "seed=" << seed;
    }
}

// --- streams pinned to the retired dense scheduler ---
//
// The digests below were captured from the dense per-session-FIFO
// scheduler (deleted once every caller moved to the ring) on these
// exact workloads and device setups; the ring must keep reproducing
// them.

TEST(RingScheduler, MatchesLegacySchedulerStreamUnderStaticRate)
{
    // |R| = 1 closes the decision channel, so the per-shard observable
    // streams must equal the legacy ones whatever the internal
    // dispatch order. (Session ATTRIBUTION may differ: the legacy core
    // scanned session ids, the activation ring scans activation order
    // — both round-robin, different tie-breaks.)
    const std::vector<std::pair<std::uint32_t, std::vector<PinnedStream>>>
        pinned = {
            {1, {{267, 0xc49df031f175a0caull}}},
            {4,
             {{310, 0x35c5cf4df445348full},
              {347, 0xcd9c9bcc3d075704ull},
              {335, 0x0c42cec4d691c2c2ull},
              {301, 0xb8414a66f7d7d407ull}}},
        };
    for (const auto &[shards, streams] : pinned) {
        RingSetup s;
        s.shards = shards;
        s.sessions = 5;
        s.seed = 3;
        const RingResult ring = runRing(s);
        expectPinnedStreams(ring, streams,
                            "shards=" + std::to_string(shards));
        std::uint64_t completed = 0;
        for (const auto &st : ring.stats)
            completed += std::get<1>(st);
        EXPECT_EQ(completed, 166u) << "shards=" << shards;
    }
}

TEST(RingScheduler, MatchesLegacySchedulerExactlyForOneSessionDynamic)
{
    // With one session, dispatch is FIFO in both engines: the bounded
    // serve must replay the legacy enforcer sequence exactly — streams,
    // stats, and the latency samples themselves (pinned as the digest
    // of their sorted values).
    struct Pinned
    {
        std::uint32_t shards;
        std::vector<PinnedStream> streams;
        StatsTuple stats;
        std::uint64_t latencyDigest;
    };
    const std::vector<Pinned> pinned = {
        {1,
         {{158, 0x09b366210b52c928ull}},
         {18, 18, 0, 29680, 80460, 71820, 9620},
         0x03efcb4f6d0dc1e6ull},
        // lastCompletion is pinned as 0 for M > 1: the legacy
        // scheduler kept the LAST-SERVED completion cycle (global
        // dispatch order), the ring scheduler the max.
        {4,
         {{82, 0x465fce001bbdd92bull},
          {98, 0x26b10d544b2e774eull},
          {75, 0x36a5fff8a39ade8eull},
          {88, 0x611baaa8f970d0f0ull}},
         {18, 18, 0, 0, 49045, 43370, 4604},
         0x2f68e28d0835fa97ull},
    };
    for (const Pinned &p : pinned) {
        const std::string what = "shards=" + std::to_string(p.shards);
        RingSetup s;
        s.shards = p.shards;
        s.dynamic = true;
        s.sessions = 1;
        s.seed = 9;
        const RingResult ring = runRing(s);
        expectPinnedStreams(ring, p.streams, what);

        ASSERT_EQ(ring.stats.size(), 1u);
        auto got = ring.stats[0];
        if (p.shards > 1)
            std::get<3>(got) = 0;
        EXPECT_EQ(got, p.stats) << what;

        std::vector<Cycles> samples;
        for (const auto &c : ring.completions)
            samples.push_back(c.completion.done - c.arrival);
        std::sort(samples.begin(), samples.end());
        EXPECT_EQ(streamDigest(samples), p.latencyDigest) << what;
    }
}

// --- fault recovery on the bounded path ---

TEST(RingScheduler, FaultRecoveryKeepsWorkerCountBitIdentical)
{
    // A fault-injected functional array: retried transactions leave
    // backoff slots owed on their shard's enforcer, settled ahead of
    // every later slot and stopped at epoch boundaries like dummies.
    // Streams, stats, the CSV and the fault counters must not depend
    // on the worker count.
    RingSetup s;
    s.kind = "functional";
    s.fault = dram::FaultSpec::parse("flip+stuck@5e-3#9");
    s.shards = 4;
    s.dynamic = true; // transitions land among the recovery slots
    s.sessions = 6;
    s.lanes = 2;

    s.threads = 1;
    const RingResult ref = runRing(s);
    std::uint64_t detected = 0, slots = 0;
    for (const auto &f : ref.faults) {
        detected += f[1];
        slots += f[4];
    }
    EXPECT_GT(detected, 0u) << "the case must actually inject faults";
    EXPECT_GT(slots, 0u) << "the case must actually charge recovery slots";

    s.threads = 4;
    const RingResult got = runRing(s);
    expectSameRun(ref, got, "faults threads=4");
}

namespace {

/** Fixed-latency device that reports retries on chosen real
 *  transactions (keyed by real-submission index) and records every
 *  start. */
class RetryingDevice final : public timing::OramDeviceIf
{
  public:
    static constexpr Cycles kLatency = 300;

    explicit RetryingDevice(std::map<std::uint64_t, std::uint32_t> retries)
        : retries_(std::move(retries))
    {
    }

    timing::OramCompletion
    submit(Cycles now, const timing::OramTransaction &txn) override
    {
        timing::OramCompletion c{now, now + kLatency, 0, 64, 1, 0, 0};
        if (txn.kind == timing::OramTransaction::Kind::Real) {
            const auto it = retries_.find(reals_++);
            if (it != retries_.end()) {
                c.faultsDetected = it->second;
                c.retries = it->second;
                recovered.push_back({starts.size(), it->second});
            }
        }
        starts.push_back(now);
        return c;
    }
    Cycles accessLatency() const override { return kLatency; }

    std::vector<Cycles> starts;
    /** (stream position, retries) of every recovered transaction. */
    std::vector<std::pair<std::size_t, std::uint32_t>> recovered;

  private:
    std::map<std::uint64_t, std::uint32_t> retries_;
    std::uint64_t reals_ = 0;
};

struct EnforcerRun
{
    std::vector<Cycles> starts;
    std::vector<std::pair<std::size_t, std::uint32_t>> recovered;
    std::vector<std::tuple<unsigned, Cycles, Cycles>> decisions;
    std::uint64_t recoverySlots = 0;
    unsigned pinned = 0;
    double bitsConsumed = 0.0;
};

/** Serve a phased real stream (every third transaction recovers after
 *  1-4 retries) through one enforcer under a multi-rate learner, short
 *  epochs and a finite monitor — unbounded serve()/drainUntil(), or
 *  the bounded calls with transitions applied between them. */
EnforcerRun
runEnforcer(bool bounded)
{
    std::map<std::uint64_t, std::uint32_t> retries;
    constexpr std::uint64_t kTxns = 200;
    for (std::uint64_t k = 0; k < kTxns; k += 3)
        retries[k] = 1 + static_cast<std::uint32_t>(k / 3 % 4);
    RetryingDevice dev(std::move(retries));
    const timing::RateSet rates{std::vector<Cycles>{400, 800, 1600, 3200}};
    const timing::EpochSchedule sched{1024, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    timing::LeakageMonitor monitor(13.0, rates.size()); // 6 free decisions
    timing::RateEnforcer enf(dev, rates, sched, learner, 1600);
    enf.attachMonitor(&monitor);

    Cycles arrival = 0;
    for (std::uint64_t k = 0; k < kTxns; ++k) {
        // Phases of 32 sparse then 32 back-to-back arrivals, so the
        // learner's rate moves between epochs.
        arrival += (k / 32) % 2 != 0 ? 50 : 6000;
        const auto txn = timing::OramTransaction::real(k);
        if (!bounded) {
            enf.serve(arrival, txn);
            continue;
        }
        while (!enf.serveBounded(arrival, txn))
            enf.applyTransition();
    }
    const Cycles horizon = arrival + 200'000;
    if (bounded) {
        while (!enf.drainBounded(horizon))
            enf.applyTransition();
    } else {
        enf.drainUntil(horizon);
    }

    EnforcerRun r;
    r.starts = dev.starts;
    r.recovered = dev.recovered;
    for (const auto &d : enf.decisions())
        r.decisions.emplace_back(d.epoch, d.startCycle, d.rate);
    r.recoverySlots = enf.counters().recoverySlots();
    r.pinned = enf.pinnedDecisions();
    r.bitsConsumed = monitor.bitsConsumed();
    return r;
}

} // namespace

TEST(RateEnforcer, BoundedServeReplaysUnboundedWithRecoverySlots)
{
    const EnforcerRun unbounded = runEnforcer(false);
    const EnforcerRun bounded = runEnforcer(true);

    EXPECT_EQ(bounded.starts, unbounded.starts);
    EXPECT_EQ(bounded.recovered, unbounded.recovered);
    EXPECT_EQ(bounded.decisions, unbounded.decisions);
    EXPECT_EQ(bounded.recoverySlots, unbounded.recoverySlots);
    EXPECT_EQ(bounded.pinned, unbounded.pinned);
    EXPECT_DOUBLE_EQ(bounded.bitsConsumed, unbounded.bitsConsumed);

    // Both paths share the slot arithmetic, so also check the stream
    // against the decision log directly: every recovery slot starts
    // exactly one period after the previous access completes, at the
    // rate in force once every boundary up to that slot has been
    // crossed — the position an idle dummy would take.
    const auto &dec = unbounded.decisions;
    auto slotAfter = [&](Cycles done) {
        std::size_t e = 0;
        while (e + 1 < dec.size() && std::get<1>(dec[e + 1]) <= done)
            ++e;
        Cycles rate = std::get<2>(dec[e]);
        while (e + 1 < dec.size() && std::get<1>(dec[e + 1]) <= done + rate)
            rate = std::get<2>(dec[++e]);
        return done + rate;
    };
    std::uint64_t slots = 0;
    bool straddled = false;
    for (const auto &[pos, n] : unbounded.recovered) {
        const std::uint64_t owed = (std::uint64_t{1} << n) - 1;
        slots += owed;
        ASSERT_LT(pos + owed, unbounded.starts.size());
        for (std::size_t j = pos + 1; j <= pos + owed; ++j)
            EXPECT_EQ(unbounded.starts[j],
                      slotAfter(unbounded.starts[j - 1] +
                                RetryingDevice::kLatency))
                << "recovery slot " << j;
        // Does a rate CHANGE land inside this recovery run?
        const Cycles first = unbounded.starts[pos];
        const Cycles last = unbounded.starts[pos + owed];
        for (std::size_t e = 1; e < dec.size(); ++e)
            straddled = straddled ||
                        (std::get<1>(dec[e]) > first &&
                         std::get<1>(dec[e]) <= last &&
                         std::get<2>(dec[e]) != std::get<2>(dec[e - 1]));
    }
    // The case must exercise what it claims: recovery slots were
    // charged, the monitor pinned the rate, and some recovered
    // transaction's backoff slots straddle an epoch boundary that
    // changed the rate.
    EXPECT_EQ(unbounded.recoverySlots, slots);
    EXPECT_GT(unbounded.pinned, 0u);
    EXPECT_TRUE(straddled) << "no recovery slot run crossed a rate change";
}

TEST(RingScheduler, RestoreRejectsMismatchedCounts)
{
    // A quiescent scheduler's snapshot restores only into one with the
    // same shard, lane and session counts; anything else is reported,
    // never adopted.
    struct Shape
    {
        std::uint32_t shards;
        std::size_t lanes;
        std::uint32_t sessions;
    };
    auto snapshot = [](const Shape &shape, ByteWriter &w,
                       const std::string *restore_from, std::string *err) {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng(11);
        oram::ShardedOramDevice dev(oram::OramDeviceSpec{}, tinyConfig(),
                                    shape.shards, 5, mem, rng);
        const timing::RateSet rates{ringRates(false)};
        const timing::EpochSchedule sched{Cycles{1} << 30, 2,
                                          Cycles{1} << 40};
        const timing::RateLearner learner{rates};
        sim::RingScheduler::Options o;
        o.lanes = shape.lanes;
        sim::RingScheduler rs(dev, rates, sched, learner, 500, leakParams(1),
                              o);
        for (std::uint32_t sid = 0; sid < shape.sessions; ++sid)
            rs.openSession(100 + sid, -1.0,
                           static_cast<std::uint16_t>(sid % shape.lanes));
        if (restore_from != nullptr) {
            const std::vector<std::uint8_t> bytes(restore_from->begin(),
                                                  restore_from->end());
            ByteReader r(bytes);
            *err = rs.restoreState(r);
            return;
        }
        rs.serveNow(0, 0, timing::OramTransaction::real(1));
        rs.saveState(w);
    };
    const Shape base{2, 2, 3};
    ByteWriter w;
    snapshot(base, w, nullptr, nullptr);
    const std::string bytes(w.data().begin(), w.data().end());

    std::string err;
    snapshot(base, w, &bytes, &err);
    EXPECT_EQ(err, "") << "the matching shape must restore";
    for (const Shape &other :
         {Shape{4, 2, 3}, Shape{2, 1, 3}, Shape{2, 2, 2}}) {
        snapshot(other, w, &bytes, &err);
        EXPECT_NE(err, "") << other.shards << " shards, " << other.lanes
                           << " lanes, " << other.sessions << " sessions";
    }
}

TEST(RingScheduler, RestoredRunContinuesBitIdentically)
{
    // Serve a batch, checkpoint the quiescent scheduler (and device),
    // restore into a fresh stack and serve a second batch: attribution
    // and streams must equal the uninterrupted run's. The first batch
    // ends with weight-3 session 0 two slots into a burst, and the
    // second batch has already arrived, so wrr continues that burst —
    // only if the policy state rode the checkpoint.
    struct Stack
    {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng{11};
        oram::ShardedOramDevice dev{oram::OramDeviceSpec{}, tinyConfig(), 1,
                                    5, mem, rng, /*record=*/true};
        timing::RateSet rates{ringRates(true)};
        timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
        timing::RateLearner learner{rates};
        sim::RingScheduler rs{dev, rates, sched, learner, 3200,
                              leakParams(4), options()};

        Stack()
        {
            rs.openSession(100, -1.0, 0, 3);
            rs.openSession(101, 40.0, 0, 1); // finite: monitor ledger
        }
        static sim::RingScheduler::Options
        options()
        {
            sim::RingScheduler::Options o;
            o.policy = timing::DispatchPolicyKind::WeightedRoundRobin;
            return o;
        }
        void
        batch(Cycles at, std::vector<std::uint32_t> &order)
        {
            for (std::uint32_t sid : {0u, 1u, 0u, 0u, 0u, 0u, 1u})
                ASSERT_TRUE(rs.trySubmit(sid, at,
                                         timing::OramTransaction::real(sid))
                                .has_value());
            rs.runUntilIdle();
            sim::SessionRing::Completion c;
            while (rs.lane(0).popCompletion(c))
                order.push_back(c.sessionId);
        }
    };

    std::vector<std::uint32_t> whole_order;
    Stack whole;
    whole.batch(0, whole_order);
    whole.batch(1000, whole_order);
    whole.rs.drainUntil(kDrainHorizon);

    std::vector<std::uint32_t> split_order;
    ByteWriter w;
    {
        Stack first;
        first.batch(0, split_order);
        first.dev.saveState(w);
        first.rs.saveState(w);
    }
    Stack second;
    ByteReader r(w.data());
    second.dev.restoreState(r);
    ASSERT_EQ(second.rs.restoreState(r), "");
    EXPECT_TRUE(r.atEnd());
    second.batch(1000, split_order);
    second.rs.drainUntil(kDrainHorizon);

    EXPECT_EQ(split_order, whole_order);
    EXPECT_EQ(second.dev.recorder(0)->startCycles(),
              whole.dev.recorder(0)->startCycles());
    EXPECT_EQ(second.rs.csv(), whole.rs.csv());
    EXPECT_EQ(second.rs.lane(0).retiredFence(),
              whole.rs.lane(0).retiredFence());
    for (std::uint32_t sid = 0; sid < 2; ++sid)
        EXPECT_EQ(statsOf(second.rs.stats(sid), true),
                  statsOf(whole.rs.stats(sid), true));
    ASSERT_NE(second.rs.monitor(), nullptr);
    EXPECT_EQ(second.rs.monitor()->decisions(),
              whole.rs.monitor()->decisions());
}

// --- QoS dispatch ---

TEST(RingScheduler, DispatchPolicyCannotShiftTheObservableStream)
{
    // A policy picks WHICH eligible session rides the next enforced
    // slot. Under a pinned rate (|R| = 1 — the decision channel is
    // closed, isolating pure dispatch) the per-shard streams must be
    // bit-identical across policies; only attribution may move.
    RingSetup s;
    s.shards = 4;
    s.sessions = 6;
    s.seed = 5;
    s.policy = timing::DispatchPolicyKind::RoundRobin;
    const RingResult rr = runRing(s);
    s.policy = timing::DispatchPolicyKind::WeightedRoundRobin;
    const RingResult wrr = runRing(s);
    s.policy = timing::DispatchPolicyKind::EarliestDeadline;
    const RingResult edf = runRing(s);

    EXPECT_EQ(rr.streams, wrr.streams);
    EXPECT_EQ(rr.streams, edf.streams);
    EXPECT_EQ(rr.served, wrr.served);
    EXPECT_EQ(rr.served, edf.served);
    EXPECT_EQ(rr.last, wrr.last);
    EXPECT_EQ(rr.last, edf.last);
}

namespace {

/** Serve a fully backlogged single-shard slate and return the session
 *  attribution order the policy produced. */
std::vector<std::uint32_t>
attributionOrder(timing::DispatchPolicyKind policy,
                 const std::vector<std::uint16_t> &weights,
                 const std::vector<Cycles> &deadline_offsets,
                 const std::vector<int> &counts)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), 1, 5, mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.policy = policy;
    sim::RingScheduler rs(dev, rates, sched, learner, 500, leakParams(1), o);

    for (std::size_t sid = 0; sid < counts.size(); ++sid)
        rs.openSession(100 + sid, -1.0, 0, weights[sid],
                       deadline_offsets[sid]);
    // Session-major submission: session 0 activates first, everyone
    // arrives at cycle 0, so every head is eligible from the start.
    for (std::size_t sid = 0; sid < counts.size(); ++sid)
        for (int k = 0; k < counts[sid]; ++k)
            EXPECT_TRUE(rs.trySubmit(static_cast<std::uint32_t>(sid), 0,
                                     timing::OramTransaction::real(sid))
                            .has_value());
    rs.runUntilIdle();

    std::vector<std::uint32_t> order;
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        order.push_back(c.sessionId);
    return order;
}

} // namespace

TEST(RingScheduler, WeightedRoundRobinServesBursts)
{
    // Weights 3:1, all heads tied at arrival 0. The scan starts after
    // the activation cursor (session 0 activated first), so session 1
    // opens; thereafter session 0 rides 3-slot bursts.
    const auto order = attributionOrder(
        timing::DispatchPolicyKind::WeightedRoundRobin, {3, 1}, {0, 0},
        {6, 2});
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{1, 0, 0, 0, 1, 0, 0, 0}));
}

TEST(RingScheduler, EarliestDeadlineServesTightestOffsetFirst)
{
    // Same arrivals, deadline offsets 3000 vs 0: the zero-offset
    // session drains completely first.
    const auto order = attributionOrder(
        timing::DispatchPolicyKind::EarliestDeadline, {1, 1}, {3000, 0},
        {3, 3});
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 1, 1, 0, 0, 0}));
}

// --- latency percentiles ---

TEST(LatencyPercentile, RingSchedulerAgreesWithItsOwnCompletions)
{
    RingSetup setup;
    setup.shards = 4;
    setup.dynamic = true;
    setup.sessions = 3;
    setup.seed = 6;

    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards, 5, mem,
                                rng);
    const timing::RateSet rates{ringRates(true)};
    const timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler rs(dev, rates, sched, learner, 3200, leakParams(4));
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid);
    for (const auto &a : makeWorkload(setup.sessions, setup.seed))
        ASSERT_TRUE(rs.trySubmit(a.sid, a.at,
                                 timing::OramTransaction::real(a.block))
                        .has_value());
    rs.runUntilIdle();

    std::vector<std::vector<Cycles>> samples(setup.sessions);
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        samples[c.sessionId].push_back(c.completion.done - c.arrival);

    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid) {
        ASSERT_GT(samples[sid].size(), 10u);
        for (const double q : kQuantiles) {
            const Cycles want = sortedReference(samples[sid], q);
            EXPECT_EQ(rs.latencyPercentile(sid, q), want)
                << "sid " << sid << " q " << q;
            EXPECT_EQ(rs.latencyPercentile(sid, q), want)
                << "repeat must not disturb the samples, sid " << sid;
        }
    }
}
