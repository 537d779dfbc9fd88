/**
 * @file
 * Sharded ORAM device array scaling bench: S closed sessions feed M
 * rate-enforced subtree devices (oram/sharded_device.hh) through the
 * ring scheduler (sim::RingScheduler). Sweeps M in {1, 2, 4, 8, 16} x
 * session counts with a fixed open-loop backlog and reports, per
 * point:
 *
 *  - aggregate accepted-transaction throughput and its scaling vs the
 *    M = 1 point at the same session count — the payoff claim: the
 *    array's accepted rate grows ~linearly in M because every shard's
 *    enforcer times its own stream;
 *  - PRF routing balance (min/max per-shard real-transaction share);
 *  - per-session fairness, as in the multi-session bench.
 *
 * Security invariants are asserted on every point, not just reported:
 * each shard's recorded observable stream must be exactly periodic
 * (gap = rate + that shard's OLAT, dummies included), and the M = 1
 * array must emit a stream bit-identical to the bare unsharded
 * device behind a single enforcer.
 *
 * Usage:
 *   bench_sharded_throughput [--quick] [--json <path>] [--check]
 *
 * --check (CI gate) fails unless, at the largest session count,
 * aggregate throughput scales >= 0.8 * M for every M <= 8, every
 * shard stream is periodic, and the M = 1 stream equals the bare
 * device's.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/rate_enforcer.hh"

using namespace tcoram;

namespace {

constexpr Cycles kRate = 1000;
constexpr std::uint64_t kRouteSeed = 7;

/** Results of one (shards, sessions) point. */
struct SweepPoint
{
    std::uint32_t shards = 0;
    std::size_t sessions = 0;
    std::uint64_t completed = 0;
    Cycles span = 0;
    double throughputPerMcycle = 0.0;
    double scaling = 0.0; ///< vs the M = 1 point at the same sessions
    double fairness = 0.0;
    double minShardShare = 0.0;
    double maxShardShare = 0.0;
    Cycles maxShardOlat = 0;
    bool periodic = false;
};

/** One recorded stream (start cycle + kind) for the equality check. */
struct StreamEvent
{
    Cycles start;
    timing::OramTransaction::Kind kind;

    bool
    operator==(const StreamEvent &o) const
    {
        return start == o.start && kind == o.kind;
    }
};

std::vector<StreamEvent>
events(const timing::RecordingOramDevice &rec)
{
    std::vector<StreamEvent> out;
    out.reserve(rec.records().size());
    for (const auto &r : rec.records())
        out.push_back({r.completion.start, r.kind});
    return out;
}

/** Deterministic per-(session, k) block id, spread wide so the PRF
 *  router sees distinct blocks. */
std::uint64_t
blockId(std::size_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

/** The single public rate/epoch configuration every harness shares. */
struct RateConfig
{
    timing::RateSet rates{std::vector<Cycles>{kRate}};
    timing::EpochSchedule schedule{Cycles{1} << 30, 2, Cycles{1} << 40};
    timing::RateLearner learner{rates};

    static protocol::LeakageParams
    params()
    {
        protocol::LeakageParams p;
        p.rateCount = 1; // single rate: 0 bits per stream
        return p;
    }
};

/**
 * The ONE workload every harness runs (the M = 1 equality check is
 * only meaningful because all paths feed literally this): open-loop,
 * every session queues its whole backlog up front (arrivals at cycle
 * k), so each slot serves continuously until its queue drains — the
 * saturation regime where the scaling claim must hold. @p submit gets
 * (session, arrival, txn) in submission order.
 */
template <typename Submit>
void
forEachTxn(std::size_t n_sessions, std::uint64_t total_txns, Submit submit)
{
    const std::uint64_t per_session = total_txns / n_sessions;
    for (std::uint64_t k = 0; k < per_session; ++k)
        for (std::size_t s = 0; s < n_sessions; ++s)
            submit(static_cast<std::uint32_t>(s), k,
                   timing::OramTransaction::real(blockId(s, k)));
}

/**
 * Run the workload through @p sched. After the run, trailing dummies
 * keep every stream going past the last real completion — periodicity
 * must survive the drain too.
 * @return the last real completion cycle (the throughput span).
 */
Cycles
driveWorkload(sim::RingScheduler &sched, std::size_t n_sessions,
              std::uint64_t total_txns, Cycles slot_period)
{
    for (std::size_t s = 0; s < n_sessions; ++s)
        sched.openSession(mixSeed(0x5a7d, s));
    forEachTxn(n_sessions, total_txns,
               [&](std::uint32_t s, Cycles arrival,
                   const timing::OramTransaction &txn) {
                   if (!sched.trySubmit(s, arrival, txn))
                       tcoram_fatal("backlog exceeds the lane capacity");
               });
    const Cycles last = sched.runUntilIdle();
    sched.drainUntil(last + 8 * slot_period);
    return last;
}

/** Sharded harness: M recorded subtrees behind the ring scheduler,
 *  its lane sized for the whole open-loop backlog. */
struct ShardedRun
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng{42};
    oram::OramDeviceSpec inner; // timing backend per subtree
    oram::ShardedOramDevice device;
    RateConfig rc;
    sim::RingScheduler sched;

    ShardedRun(std::uint32_t shards, std::uint64_t total_txns)
        : device(inner, oram::OramConfig::benchConfig(), shards,
                 kRouteSeed, mem, rng, /*record=*/true),
          sched(device, rc.rates, rc.schedule, rc.learner, kRate,
                RateConfig::params(), options(total_txns))
    {
    }

    static sim::RingScheduler::Options
    options(std::uint64_t total_txns)
    {
        sim::RingScheduler::Options o;
        o.ringCapacity = total_txns;
        return o;
    }
};

SweepPoint
runPoint(std::uint32_t n_shards, std::size_t n_sessions,
         std::uint64_t total_txns)
{
    ShardedRun run(n_shards, total_txns);
    oram::ShardedOramDevice &device = run.device;
    const Cycles last =
        driveWorkload(run.sched, n_sessions, total_txns,
                      kRate + device.accessLatency());

    SweepPoint p;
    p.shards = n_shards;
    p.sessions = n_sessions;
    p.completed = (total_txns / n_sessions) * n_sessions;
    p.span = last;
    p.throughputPerMcycle =
        last ? 1e6 * static_cast<double>(p.completed) /
                   static_cast<double>(last)
             : 0.0;
    p.fairness = run.sched.fairnessRatio();

    // Per-shard stream checks: exact periodicity at that shard's own
    // calibrated slot period, and routing balance.
    p.periodic = true;
    std::uint64_t min_real = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_real = 0;
    for (std::uint32_t i = 0; i < n_shards; ++i) {
        const auto &dev = device.shard(i);
        const Cycles period = kRate + dev.accessLatency();
        p.maxShardOlat = std::max(p.maxShardOlat, dev.accessLatency());
        min_real = std::min(min_real, dev.realAccesses());
        max_real = std::max(max_real, dev.realAccesses());
        const auto starts = device.recorder(i)->startCycles();
        for (std::size_t j = 1; j < starts.size(); ++j)
            if (starts[j] - starts[j - 1] != period) {
                p.periodic = false;
                break;
            }
    }
    p.minShardShare = static_cast<double>(min_real) /
                      static_cast<double>(p.completed);
    p.maxShardShare = static_cast<double>(max_real) /
                      static_cast<double>(p.completed);
    return p;
}

/**
 * The bare-device reference: the workload served in submission order
 * by one enforcer over an unsharded TimingOramDevice, then the same
 * trailing drain. Returns the full observable stream (reals +
 * dummies).
 */
std::vector<StreamEvent>
bareStream(std::size_t n_sessions, std::uint64_t total_txns)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng calib_rng(42);
    oram::TimingOramDevice inner(oram::OramConfig::benchConfig(), mem,
                                 calib_rng);
    timing::RecordingOramDevice recorder(inner);
    RateConfig rc;
    timing::RateEnforcer enforcer(recorder, rc.rates, rc.schedule,
                                  rc.learner, kRate);
    Cycles last = 0;
    forEachTxn(n_sessions, total_txns,
               [&](std::uint32_t, Cycles arrival,
                   const timing::OramTransaction &txn) {
                   last = enforcer.serve(arrival, txn).done;
               });
    enforcer.drainUntil(last + 8 * (kRate + recorder.accessLatency()));
    return events(recorder);
}

/** The M = 1 array's stream for the same workload. */
std::vector<StreamEvent>
shardedM1Stream(std::size_t n_sessions, std::uint64_t total_txns)
{
    ShardedRun run(1, total_txns);
    driveWorkload(run.sched, n_sessions, total_txns,
                  kRate + run.device.accessLatency());
    return events(*run.device.recorder(0));
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_sharded.json");

    const std::uint64_t total_txns = quick ? 2048 : 8192;
    const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8, 16};
    const std::vector<std::size_t> session_counts = {2, 8, 32};

    bench::banner("sharded ORAM device array: M enforced subtree streams");
    std::printf("%-8s %-10s %-11s %-12s %-9s %-10s %-12s %-9s\n", "shards",
                "sessions", "completed", "thr/Mcycle", "scaling",
                "fairness", "shard-share", "periodic");

    std::vector<SweepPoint> points;
    for (std::size_t n : session_counts) {
        double base_thr = 0.0;
        for (std::uint32_t m : shard_counts) {
            SweepPoint p = runPoint(m, n, total_txns);
            if (m == 1)
                base_thr = p.throughputPerMcycle;
            p.scaling = base_thr > 0.0 ? p.throughputPerMcycle / base_thr
                                       : 0.0;
            std::printf("%-8u %-10zu %-11llu %-12.1f %-9.2f %-10.2f "
                        "%.2f-%.2f    %-9s\n",
                        p.shards, p.sessions,
                        (unsigned long long)p.completed,
                        p.throughputPerMcycle, p.scaling, p.fairness,
                        p.minShardShare, p.maxShardShare,
                        p.periodic ? "yes" : "NO");
            points.push_back(p);
        }
    }

    // M = 1 transparency: the array's single stream must be
    // bit-identical to the bare device behind one enforcer.
    const std::size_t eq_sessions = session_counts.back();
    const bool m1_identical =
        bareStream(eq_sessions, total_txns) ==
        shardedM1Stream(eq_sessions, total_txns);
    std::printf("M=1 stream vs bare device: %s\n",
                m1_identical ? "bit-identical" : "DIFFERS");

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"bench\": \"sharded\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"rate\": " << kRate << ",\n";
        os << "  \"total_txns\": " << total_txns << ",\n";
        os << "  \"m1_stream_identical\": "
           << (m1_identical ? "true" : "false") << ",\n";
        os << "  \"sweep\": [";
        char buf[64];
        auto num = [&](double v) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            return std::string(buf);
        };
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto &p = points[i];
            os << (i ? ",\n    {" : "\n    {");
            os << "\"shards\": " << p.shards;
            os << ", \"sessions\": " << p.sessions;
            os << ", \"completed\": " << p.completed;
            os << ", \"span_cycles\": " << p.span;
            os << ", \"throughput_per_mcycle\": "
               << num(p.throughputPerMcycle);
            os << ", \"scaling\": " << num(p.scaling);
            os << ", \"fairness_ratio\": " << num(p.fairness);
            os << ", \"min_shard_share\": " << num(p.minShardShare);
            os << ", \"max_shard_share\": " << num(p.maxShardShare);
            os << ", \"max_shard_olat\": " << p.maxShardOlat;
            os << ", \"periodic\": " << (p.periodic ? "true" : "false");
            os << "}";
        }
        os << "\n  ]\n}\n";
        std::ofstream f(json_path);
        if (!f)
            tcoram_fatal("cannot write ", json_path);
        f << os.str();
        std::printf("wrote %s\n", json_path.c_str());
    }

    // --- CI gate ---
    if (check) {
        bool ok = true;
        for (const auto &p : points) {
            if (!p.periodic) {
                std::printf("FAIL: shard stream not periodic at M=%u, "
                            "%zu sessions\n",
                            p.shards, p.sessions);
                ok = false;
            }
            if (p.sessions == session_counts.back() && p.shards <= 8 &&
                p.scaling < 0.8 * static_cast<double>(p.shards)) {
                std::printf("FAIL: M=%u scales only %.2fx (< 0.8 * M "
                            "= %.1f)\n",
                            p.shards, p.scaling, 0.8 * p.shards);
                ok = false;
            }
        }
        if (!m1_identical) {
            std::printf("FAIL: M=1 array stream differs from the bare "
                        "device\n");
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("check OK: throughput scales >= 0.8*M through M=8, "
                    "all shard streams periodic, M=1 bit-identical\n");
    }
    return 0;
}
