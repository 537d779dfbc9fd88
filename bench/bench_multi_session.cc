/**
 * @file
 * Multi-session scaling bench: N closed-loop client sessions (each a
 * §5 protocol session with its own leakage budget and think time)
 * share ONE rate-enforced ORAM device through sim::RingScheduler.
 * Sweeps N = 1..64 and reports, per session count:
 *
 *  - aggregate throughput and device utilization (completions x slot
 *    period / span) — must saturate the single enforced device as the
 *    offered load grows;
 *  - per-session throughput and latency, plus the max/min per-session
 *    completion ratio (the starvation metric);
 *  - the dummy fraction of the enforced stream (the load the device
 *    carries anyway, by construction).
 *
 * The enforced stream itself is session-count-independent (pinned by
 * tests/test_scheduler.cc); this bench quantifies what sharing costs.
 *
 * Usage:
 *   bench_multi_session [--quick] [--json <path>] [--check]
 *
 * --check (CI smoke) fails unless, at the largest session count, the
 * device is >= 90% utilized and no session is starved (max/min
 * completion ratio <= 1.5).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"

using namespace tcoram;

namespace {

/** Results of one session-count point. */
struct SweepPoint
{
    std::size_t sessions = 0;
    std::uint64_t completed = 0;
    Cycles span = 0;
    double utilization = 0.0;
    double fairness = 0.0;
    double dummyFraction = 0.0;
    std::vector<double> throughputPerMcycle;
    std::vector<double> avgLatency;
    std::vector<Cycles> maxLatency;
    /** Per-session queue-latency quantiles (QoS reporting). */
    std::vector<Cycles> p50Latency;
    std::vector<Cycles> p99Latency;
};

/**
 * Closed-loop run: every session keeps one request outstanding and
 * thinks for a session-specific random interval between completions.
 * Mean think time ~16 K cycles vs a ~(rate + OLAT) slot period, so a
 * single session leaves the device mostly idle and the sweep shows
 * where aggregate load saturates it.
 */
SweepPoint
runPoint(std::size_t n_sessions, Cycles rate, Cycles horizon)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng calib_rng(42);
    // One shard: bit-identical to the bare timing device.
    const oram::OramDeviceSpec inner; // timing
    oram::ShardedOramDevice device(inner, oram::OramConfig::benchConfig(),
                                   /*shards=*/1, /*route_seed=*/7, mem,
                                   calib_rng);

    const timing::RateSet rates(std::vector<Cycles>{rate});
    const timing::EpochSchedule schedule(Cycles{1} << 30, 2, Cycles{1} << 40);
    const timing::RateLearner learner(rates);

    protocol::LeakageParams params;
    params.rateCount = rates.size(); // single rate: 0 ORAM-timing bits
    sim::RingScheduler sched(device, rates, schedule, learner, rate, params);

    // Sessions alternate unlimited and finite (64-bit) budgets so the
    // admission handshake and the shared monitor both get exercised.
    std::vector<Rng> think;
    for (std::size_t s = 0; s < n_sessions; ++s) {
        const double limit = (s % 2 == 0) ? -1.0 : 64.0;
        sched.openSession(mixSeed(0x5e55, s), limit);
        think.emplace_back(mixSeed(0x714a6b, s));
    }

    // Prime one outstanding request per session; requests are served
    // one at a time in arrival order (ties by session id).
    std::vector<std::uint64_t> next_block(n_sessions, 0);
    auto think_gap = [&](std::size_t s) {
        return 2000 + think[s].nextBounded(28000); // mean ~16 K cycles
    };
    using Request = std::pair<Cycles, std::uint32_t>; // (arrival, sid)
    std::priority_queue<Request, std::vector<Request>, std::greater<>> due;
    for (std::size_t s = 0; s < n_sessions; ++s)
        due.push({think_gap(s), static_cast<std::uint32_t>(s)});

    // Serve; completed requests respawn after think time until horizon.
    Cycles last = 0;
    while (!due.empty()) {
        const auto [arrival, s] = due.top();
        due.pop();
        const Cycles done =
            sched.serveNow(s, arrival,
                           timing::OramTransaction::real(next_block[s]++))
                .completion.done;
        last = std::max(last, done);
        const Cycles again = done + think_gap(s);
        if (again < horizon)
            due.push({again, s});
    }

    SweepPoint p;
    p.sessions = n_sessions;
    p.span = last;
    const Cycles slot_period = rate + device.accessLatency();
    for (std::size_t s = 0; s < n_sessions; ++s) {
        const auto sid = static_cast<std::uint32_t>(s);
        const auto &st = sched.stats(sid);
        p.completed += st.completed;
        p.throughputPerMcycle.push_back(st.throughputPerMcycle(p.span));
        p.avgLatency.push_back(st.avgLatency());
        p.maxLatency.push_back(st.maxLatency);
        p.p50Latency.push_back(sched.latencyPercentile(sid, 0.50));
        p.p99Latency.push_back(sched.latencyPercentile(sid, 0.99));
    }
    p.utilization = p.span ? static_cast<double>(p.completed * slot_period) /
                                 static_cast<double>(p.span)
                           : 0.0;
    p.fairness = sched.fairnessRatio();
    const std::uint64_t total = device.totalAccesses();
    p.dummyFraction =
        total ? static_cast<double>(device.dummyAccesses()) /
                    static_cast<double>(total)
              : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_multisession.json");

    const Cycles rate = 1000;
    const Cycles horizon = quick ? Cycles{3'000'000} : Cycles{20'000'000};
    const std::vector<std::size_t> counts = {1, 2, 4, 8, 16, 32, 64};

    bench::banner("multi-session scheduler over one enforced ORAM device");
    std::printf("%-10s %-11s %-12s %-10s %-10s %-12s %-10s %-10s\n",
                "sessions", "completed", "utilization", "fairness",
                "dummy%", "avg-lat (cyc)", "p50-lat", "p99-lat");

    std::vector<SweepPoint> points;
    for (std::size_t n : counts) {
        SweepPoint p = runPoint(n, rate, horizon);
        double lat_sum = 0;
        for (double l : p.avgLatency)
            lat_sum += l;
        // Worst session's quantiles: the QoS a client must plan for.
        const Cycles p50 =
            *std::max_element(p.p50Latency.begin(), p.p50Latency.end());
        const Cycles p99 =
            *std::max_element(p.p99Latency.begin(), p.p99Latency.end());
        std::printf("%-10zu %-11llu %-12.3f %-10.2f %-10.1f %-12.0f "
                    "%-10llu %-10llu\n",
                    p.sessions, (unsigned long long)p.completed,
                    p.utilization, p.fairness, 100.0 * p.dummyFraction,
                    lat_sum / static_cast<double>(p.avgLatency.size()),
                    (unsigned long long)p50, (unsigned long long)p99);
        points.push_back(std::move(p));
    }

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"bench\": \"multisession\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"rate\": " << rate << ",\n";
        os << "  \"horizon_cycles\": " << horizon << ",\n";
        os << "  \"sweep\": [";
        char buf[64];
        auto num = [&](double v) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            return std::string(buf);
        };
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto &p = points[i];
            os << (i ? ",\n    {" : "\n    {");
            os << "\"sessions\": " << p.sessions;
            os << ", \"completed\": " << p.completed;
            os << ", \"span_cycles\": " << p.span;
            os << ", \"utilization\": " << num(p.utilization);
            os << ", \"fairness_ratio\": " << num(p.fairness);
            os << ", \"dummy_fraction\": " << num(p.dummyFraction);
            os << ", \"throughput_per_mcycle\": [";
            for (std::size_t s = 0; s < p.throughputPerMcycle.size(); ++s)
                os << (s ? ", " : "") << num(p.throughputPerMcycle[s]);
            os << "], \"avg_latency\": [";
            for (std::size_t s = 0; s < p.avgLatency.size(); ++s)
                os << (s ? ", " : "") << num(p.avgLatency[s]);
            os << "], \"max_latency\": [";
            for (std::size_t s = 0; s < p.maxLatency.size(); ++s)
                os << (s ? ", " : "") << p.maxLatency[s];
            os << "], \"p50_latency\": [";
            for (std::size_t s = 0; s < p.p50Latency.size(); ++s)
                os << (s ? ", " : "") << p.p50Latency[s];
            os << "], \"p99_latency\": [";
            for (std::size_t s = 0; s < p.p99Latency.size(); ++s)
                os << (s ? ", " : "") << p.p99Latency[s];
            os << "]}";
        }
        os << "\n  ]\n}\n";
        std::ofstream f(json_path);
        if (!f)
            tcoram_fatal("cannot write ", json_path);
        f << os.str();
        std::printf("wrote %s\n", json_path.c_str());
    }

    // --- CI smoke gate ---
    if (check) {
        const SweepPoint &top = points.back();
        bool ok = true;
        if (top.utilization < 0.9) {
            std::printf("FAIL: %zu sessions utilize only %.0f%% of the "
                        "enforced device (expected saturation)\n",
                        top.sessions, 100.0 * top.utilization);
            ok = false;
        }
        if (top.fairness > 1.5) {
            std::printf("FAIL: max/min per-session completions %.2f "
                        "(> 1.5: scheduler-induced starvation)\n",
                        top.fairness);
            ok = false;
        }
        if (points.front().utilization >= top.utilization) {
            std::printf("FAIL: utilization does not grow with offered "
                        "load (%.3f @1 vs %.3f @%zu)\n",
                        points.front().utilization, top.utilization,
                        top.sessions);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("check OK: saturated at %.0f%% utilization, fairness "
                    "%.2f\n",
                    100.0 * top.utilization, top.fairness);
    }
    return 0;
}
