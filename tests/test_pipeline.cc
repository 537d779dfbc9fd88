/**
 * @file
 * Transaction-pipeline regression tests: the allocation-free steady
 * state of the ORAM datapath (counting global new/delete), batched
 * vs per-request DRAM equivalence, the recording TraceMemory and the
 * backend registry, recursive-ORAM invariants under sustained mixed
 * load, per-cell seeding of the parallel ExperimentEngine, and
 * locale-independent report formatting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <locale>
#include <new>

#include "common/rng.hh"
#include "dram/backend_registry.hh"
#include "dram/dram_model.hh"
#include "dram/flat_memory.hh"
#include "dram/trace_memory.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "oram/sharded_device.hh"
#include "sim/experiment_engine.hh"
#include "sim/shard_worker.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"
#include "workload/spec_suite.hh"

// ---------------------------------------------------------------------
// Counting allocator hook: every global new/delete in this binary is
// counted, so a test can assert that a code region performs zero heap
// allocations.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

static std::uint64_t
allocationCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tcoram {
namespace {

// ---------------------------------------------------------------------
// Allocation-free steady state.
// ---------------------------------------------------------------------

oram::OramConfig
tinyConfig(std::uint64_t blocks = 256)
{
    oram::OramConfig c;
    c.numBlocks = blocks;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    return c;
}

TEST(AllocationFree, PathOramSteadyStateAccess)
{
    oram::OramConfig c = tinyConfig();
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram o(c, map, 42);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
    Rng rng(7);

    // Warm up: touch a working set so the stash pool and every scratch
    // buffer reach steady-state capacity.
    for (int i = 0; i < 200; ++i) {
        const BlockId id = rng.nextBounded(64);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
    }

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 500; ++i) {
        const BlockId id = rng.nextBounded(64);
        if (i % 3 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "PathOram::accessInto allocated in steady state";
}

TEST(AllocationFree, PathOramDummyAccess)
{
    oram::OramConfig c = tinyConfig();
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram o(c, map, 43);

    std::vector<std::uint8_t> out(c.blockBytes);
    for (int i = 0; i < 50; ++i)
        o.accessInto(static_cast<BlockId>(i), oram::Op::Read, {}, out);
    for (int i = 0; i < 20; ++i)
        o.dummyAccess();

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 200; ++i)
        o.dummyAccess();
    EXPECT_EQ(allocationCount() - before, 0u)
        << "PathOram::dummyAccess allocated in steady state";
}

TEST(AllocationFree, RecursiveSteadyStateAccess)
{
    oram::OramConfig c;
    c.numBlocks = 128;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    oram::RecursivePathOram o(c, 44);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x17);
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        const BlockId id = rng.nextBounded(32);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
    }

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 200; ++i) {
        const BlockId id = rng.nextBounded(32);
        o.accessInto(id, oram::Op::Read, {}, out);
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "recursive access (incl. position-map stages) allocated";
}

TEST(AllocationFree, SchedulerDispatchAndDrainSteadyState)
{
    // Shard queues are pooled intrusive lists and the round buffers
    // (staging, completion buckets) keep their capacity, so a
    // backlogged submit/serve/drain cycle allocates NOTHING once the
    // pools (and the latency sample vectors) have grown to peak.
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::OramDeviceSpec inner; // timing
    oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/2,
                                /*route_seed=*/5, mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    protocol::LeakageParams params;
    params.rateCount = 1;
    sim::RingScheduler rs(dev, rates, sched, learner, 500, params);
    rs.openSession(7);
    rs.openSession(8);

    Cycles t = 0;
    auto cycle = [&](int txns, Cycles drain_to) {
        for (int i = 0; i < txns; ++i, t += 40)
            ASSERT_TRUE(rs.trySubmit(i % 2, t,
                                     timing::OramTransaction::real(i % 64))
                            .has_value());
        rs.runUntilIdle();
        sim::SessionRing::Completion c;
        while (rs.lane(0).popCompletion(c)) {
        }
        rs.drainUntil(drain_to);
    };
    // Warm up well past the measured region's peak backlog: the node
    // pool and round buffers reach 700 in-flight transactions, and the
    // per-session latency vectors a capacity (512) that covers warmup
    // + measured completions without regrowing.
    cycle(700, Cycles{1'000'000});

    const std::uint64_t before = allocationCount();
    cycle(200, Cycles{1'300'000}); // the drain fires real trailing dummies
    EXPECT_EQ(allocationCount() - before, 0u)
        << "scheduler dispatch/drain allocated in steady state";
}

TEST(AllocationFree, RingSchedulerLatencyPercentileReuse)
{
    // Same contract for the ring engine: percentile queries run
    // nth_element over ONE reused scratch, so once a first call per
    // session has grown it, repeated quantile sweeps (the
    // bench_multi_session reporting pattern) are allocation-free.
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::OramDeviceSpec inner; // timing
    oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/2,
                                /*route_seed=*/5, mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    protocol::LeakageParams params;
    params.rateCount = 1;
    sim::RingScheduler rs(dev, rates, sched, learner, 500, params);
    rs.openSession(7);
    rs.openSession(8);

    Cycles t = 0;
    for (int i = 0; i < 300; ++i, t += 40)
        ASSERT_TRUE(rs.trySubmit(i % 2, t,
                                 timing::OramTransaction::real(i % 64))
                        .has_value());
    rs.runUntilIdle();

    (void)rs.latencyPercentile(0, 0.99);
    (void)rs.latencyPercentile(1, 0.99);
    const std::uint64_t before = allocationCount();
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        (void)rs.latencyPercentile(0, q);
        (void)rs.latencyPercentile(1, q);
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "RingScheduler::latencyPercentile copied the samples afresh";
}

// ---------------------------------------------------------------------
// Batched DRAM interface.
// ---------------------------------------------------------------------

std::vector<dram::MemRequest>
pathLikeRequests(std::uint64_t n, std::uint64_t stride, bool writes)
{
    std::vector<dram::MemRequest> reqs;
    for (std::uint64_t i = 0; i < n; ++i)
        reqs.push_back({i * stride, 240, writes});
    return reqs;
}

TEST(AccessBatch, FlatMatchesPerRequest)
{
    dram::FlatMemory serial(40), batched(40);
    const auto reqs = pathLikeRequests(18, 4096, false);

    Cycles done_serial = 500;
    for (const auto &r : reqs) {
        const Cycles t = serial.access(500, r);
        done_serial = std::max(done_serial, t);
    }
    const Cycles done_batch = batched.accessBatch(500, reqs);

    EXPECT_EQ(done_serial, done_batch);
    EXPECT_EQ(serial.requestCount(), batched.requestCount());
    EXPECT_EQ(serial.bytesMoved(), batched.bytesMoved());

    // A second batch must see the controller still busy.
    EXPECT_EQ(serial.access(500, reqs[0]),
              batched.accessBatch(500, std::span(reqs.data(), 1)));
}

TEST(AccessBatch, BankedMatchesPerRequest)
{
    dram::DramModel serial{dram::DramConfig{}};
    dram::DramModel batched{dram::DramConfig{}};
    const auto reads = pathLikeRequests(18, 1 << 14, false);
    const auto writes = pathLikeRequests(18, 1 << 14, true);

    Cycles done_serial = 1000;
    for (const auto &r : reads)
        done_serial = std::max(done_serial, serial.access(1000, r));
    Cycles wr_serial = done_serial;
    for (const auto &r : writes)
        wr_serial = std::max(wr_serial, serial.access(done_serial, r));

    const Cycles done_batch = batched.accessBatch(1000, reads);
    const Cycles wr_batch = batched.accessBatch(done_batch, writes);

    EXPECT_EQ(done_serial, done_batch);
    EXPECT_EQ(wr_serial, wr_batch);
    EXPECT_EQ(serial.requestCount(), batched.requestCount());
    EXPECT_EQ(serial.bytesMoved(), batched.bytesMoved());
    EXPECT_DOUBLE_EQ(serial.rowHitRate(), batched.rowHitRate());
}

// ---------------------------------------------------------------------
// TraceMemory and the backend registry.
// ---------------------------------------------------------------------

TEST(TraceMemory, RecordsTransactions)
{
    dram::TraceMemory mem(std::make_unique<dram::FlatMemory>(40));
    const dram::MemRequest r0{0x1000, 64, false};
    const dram::MemRequest r1{0x2000, 64, true};
    const Cycles t0 = mem.access(100, r0);
    const Cycles t1 = mem.access(t0, r1);

    const auto recs = mem.records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].req.addr, 0x1000u);
    EXPECT_EQ(recs[0].issued, 100u);
    EXPECT_EQ(recs[0].completed, t0);
    EXPECT_TRUE(recs[1].req.isWrite);
    EXPECT_EQ(recs[1].completed, t1);
    EXPECT_EQ(mem.requestCount(), 2u);
    EXPECT_EQ(mem.droppedRecords(), 0u);

    EXPECT_EQ(mem.issueTimes(), (std::vector<Cycles>{100, t0}));

    mem.clearRecords();
    EXPECT_TRUE(mem.records().empty());
    EXPECT_EQ(mem.requestCount(), 2u) << "clearing records keeps stats";
}

TEST(TraceMemory, RingEvictsOldest)
{
    dram::TraceMemory mem(std::make_unique<dram::FlatMemory>(10), 4);
    Cycles now = 0;
    for (Addr a = 0; a < 6; ++a)
        now = mem.access(now, {a * 64, 64, false});
    const auto recs = mem.records();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(mem.droppedRecords(), 2u);
    // Oldest two (addr 0, 64) evicted.
    EXPECT_EQ(recs.front().req.addr, 2u * 64u);
    EXPECT_EQ(recs.back().req.addr, 5u * 64u);
}

TEST(BackendRegistry, BuiltinsAndTraceWrapping)
{
    auto &reg = dram::BackendRegistry::instance();
    EXPECT_TRUE(reg.contains("flat"));
    EXPECT_TRUE(reg.contains("banked"));
    EXPECT_TRUE(reg.contains("trace"));

    dram::BackendSpec spec;
    spec.kind = "flat";
    spec.flatLatency = 17;
    auto flat = dram::makeMemory(spec);
    ASSERT_NE(dynamic_cast<dram::FlatMemory *>(flat.get()), nullptr);
    EXPECT_EQ(flat->access(0, {0, 64, false}), 17u);

    spec.kind = "banked";
    auto banked = dram::makeMemory(spec);
    EXPECT_NE(dynamic_cast<dram::DramModel *>(banked.get()), nullptr);

    spec.kind = "trace";
    spec.traceInner = "flat";
    auto traced = dram::makeMemory(spec);
    auto *tm = dynamic_cast<dram::TraceMemory *>(traced.get());
    ASSERT_NE(tm, nullptr);
    EXPECT_NE(dynamic_cast<dram::FlatMemory *>(&tm->inner()), nullptr);
    traced->access(0, {0, 64, false});
    EXPECT_EQ(tm->records().size(), 1u);
}

TEST(BackendRegistry, SystemConfigSelectsByScheme)
{
    EXPECT_EQ(sim::SystemConfig::baseDram().memorySpec().kind, "flat");
    EXPECT_EQ(sim::SystemConfig::baseOram().memorySpec().kind, "banked");
    EXPECT_TRUE(sim::SystemConfig::protectedDram(4, 2)
                    .memorySpec()
                    .dram.closedPage);

    auto cfg = sim::SystemConfig::baseOram();
    cfg.memoryBackend = "trace";
    const auto spec = cfg.memorySpec();
    EXPECT_EQ(spec.kind, "trace");
    EXPECT_EQ(spec.traceInner, "banked");
}

TEST(TraceMemory, CalibrationTrafficExcludedFromProcessorTrace)
{
    // ORAM controller calibration replays a path against main memory
    // at construction; a recording backend must not leak those phantom
    // transactions into the adversary-visible record stream.
    auto cfg = sim::SystemConfig::baseOram();
    cfg.oram.numBlocks = 1 << 12;
    cfg.memoryBackend = "trace";
    sim::SecureProcessor proc(cfg, workload::specProfile("hmmer"));

    auto *tm = dynamic_cast<dram::TraceMemory *>(&proc.memory());
    ASSERT_NE(tm, nullptr) << "registry must hand out the trace backend";
    ASSERT_GT(proc.oramDevice()->accessLatency(), 0u)
        << "device calibrated through the traced memory";
    EXPECT_GT(tm->requestCount(), 0u)
        << "calibration transactions count toward the stats";
    EXPECT_TRUE(tm->records().empty())
        << "but must not appear in the adversary-visible records";
}

// ---------------------------------------------------------------------
// Recursive ORAM invariants under sustained mixed load.
// ---------------------------------------------------------------------

TEST(RecursiveOram, InvariantsAfter10kMixedAccesses)
{
    oram::OramConfig c;
    c.numBlocks = 128;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    oram::RecursivePathOram o(c, 77);

    constexpr BlockId kBlocks = 48;
    std::vector<std::uint8_t> expect(kBlocks, 0);
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes);

    auto fill = [&](std::uint8_t tag) {
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(tag * 131 + i);
    };

    // Initialize every block so reads always have a defined pattern.
    for (BlockId id = 0; id < kBlocks; ++id) {
        const auto tag = static_cast<std::uint8_t>(id);
        fill(tag);
        o.accessInto(id, oram::Op::Write, data, out);
        expect[id] = tag;
    }

    Rng rng(123);
    for (int round = 0; round < 10'000; ++round) {
        const BlockId id = rng.nextBounded(kBlocks);
        if (rng.nextBool(0.4)) {
            const auto tag = static_cast<std::uint8_t>(rng.next());
            fill(tag);
            o.accessInto(id, oram::Op::Write, data, out);
            expect[id] = tag;
        } else if (rng.nextBool(0.1)) {
            o.dummyAccess();
        } else {
            o.accessInto(id, oram::Op::Read, {}, out);
            fill(expect[id]);
            ASSERT_EQ(out, data) << "block " << id << " round " << round;
        }
    }

    // Every touched block is either stashed or on its mapped path, in
    // every tree; stashes stayed within capacity throughout (overflow
    // would have aborted).
    std::vector<BlockId> ids(kBlocks);
    for (BlockId i = 0; i < kBlocks; ++i)
        ids[i] = i;
    EXPECT_TRUE(o.dataOram().checkInvariant(ids));
    EXPECT_LE(o.dataOram().stash().highWater(),
              o.dataOram().stash().capacity());
}

// ---------------------------------------------------------------------
// ExperimentEngine determinism.
// ---------------------------------------------------------------------

sim::SystemConfig
fastConfig(sim::SystemConfig c)
{
    c.oram.numBlocks = 1 << 12;
    c.epoch0 = 1 << 16;
    c.ipcWindow = 50'000;
    return c;
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.workloadName, b.workloadName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.oramReal, b.oramReal);
    EXPECT_EQ(a.oramDummy, b.oramDummy);
    EXPECT_EQ(a.epochsUsed, b.epochsUsed);
    EXPECT_EQ(a.watts, b.watts);
    EXPECT_EQ(a.ipcSeries, b.ipcSeries);
}

TEST(ExperimentEngine, ThreadCountDoesNotChangeResults)
{
    const std::vector<sim::SystemConfig> configs = {
        fastConfig(sim::SystemConfig::baseDram()),
        fastConfig(sim::SystemConfig::dynamicScheme(4, 2)),
    };
    const std::vector<workload::Profile> profs = {
        workload::specProfile("hmmer"), workload::specProfile("mcf")};

    const sim::Grid serial =
        sim::ExperimentEngine(1).run(configs, profs, 100'000);
    const sim::Grid parallel =
        sim::ExperimentEngine(4).run(configs, profs, 100'000);

    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (std::size_t w = 0; w < profs.size(); ++w)
            expectSameResult(serial.at(c, w), parallel.at(c, w));
}

TEST(ExperimentEngine, RepeatRunsIdentical)
{
    const std::vector<sim::SystemConfig> configs = {
        fastConfig(sim::SystemConfig::dynamicScheme(4, 2))};
    const std::vector<workload::Profile> profs = {
        workload::specProfile("gobmk")};
    const sim::Grid a = sim::ExperimentEngine(2).run(configs, profs, 80'000);
    const sim::Grid b = sim::ExperimentEngine(2).run(configs, profs, 80'000);
    expectSameResult(a.at(0, 0), b.at(0, 0));
}

TEST(ExperimentEngine, ExplicitSeedReproducible)
{
    const auto cfg = fastConfig(sim::SystemConfig::dynamicScheme(4, 2));
    const auto prof = workload::specProfile("astar");
    const auto a = sim::runOne(cfg, prof, 80'000, 0, 987654321);
    const auto b = sim::runOne(cfg, prof, 80'000, 0, 987654321);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.oramReal, b.oramReal);
    EXPECT_EQ(a.oramDummy, b.oramDummy);
}

TEST(ExperimentEngine, CellSeedsPairConfigsPerWorkload)
{
    // Different workload columns get different seeds...
    const auto cfg = sim::SystemConfig::baseDram();
    EXPECT_NE(sim::ExperimentEngine::cellSeed(cfg, 0),
              sim::ExperimentEngine::cellSeed(cfg, 1));
    EXPECT_EQ(sim::ExperimentEngine::cellSeed(cfg, 0),
              sim::ExperimentEngine::cellSeed(cfg, 0));
    // ...but every config in a column shares one seed, so overhead
    // ratios (treatment vs base_dram) compare identical traces.
    const auto dyn = sim::SystemConfig::dynamicScheme(4, 4);
    EXPECT_EQ(sim::ExperimentEngine::cellSeed(cfg, 2),
              sim::ExperimentEngine::cellSeed(dyn, 2));
}

TEST(MixSeed, DeterministicAndSpreading)
{
    EXPECT_EQ(mixSeed(1, 2), mixSeed(1, 2));
    EXPECT_NE(mixSeed(1, 2), mixSeed(1, 3));
    EXPECT_NE(mixSeed(1, 2), mixSeed(2, 2));
}

// ---------------------------------------------------------------------
// Locale-independent report formatting.
// ---------------------------------------------------------------------

struct CommaPunct : std::numpunct<char>
{
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

TEST(LocaleStability, FmtAndCsvIgnoreGlobalLocale)
{
    const std::locale hostile(std::locale::classic(), new CommaPunct);
    const std::locale old = std::locale::global(hostile);

    EXPECT_EQ(sim::Table::fmt(1234.5, 2), "1234.50");
    EXPECT_EQ(sim::Table::fmt(0.125, 3), "0.125");

    sim::SimResult r;
    r.configName = "cfg";
    r.workloadName = "wl";
    r.instructions = 1000000;
    r.cycles = 2500000;
    r.ipc = 0.4;
    const std::string row = sim::csvRow(r);
    EXPECT_NE(row.find("0.4"), std::string::npos)
        << "decimal point must stay '.' under a comma-decimal locale: "
        << row;
    EXPECT_NE(row.find("2500000"), std::string::npos)
        << "no digit grouping in CSV integers: " << row;

    std::locale::global(old);
}

} // namespace
} // namespace tcoram
