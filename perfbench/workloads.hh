/**
 * @file
 * The benchmark's workloads, metrics and correctness gates.
 *
 * Workloads, each generated from one process with at most two threads
 * besides the main one:
 *
 *   kv-uniform-write  512 closed-loop KV sessions, uniform keys,
 *                     30% get / 70% put, 2 scheduler workers
 *   paper-grid        Figure 6: 6 paper configs x 11 SPEC profiles on
 *                     the ExperimentEngine with 2 threads
 *
 * and one diagnostic workload, runnable by name but not part of the
 * benchmark (its host time is too unsteady on a shared host to gate
 * on; perfbench/README.md):
 *
 *   kv-zipf-read      2000 closed-loop KV sessions, Zipf 0.99 keys,
 *                     85% get / 5% scan / 10% put, 1 scheduler worker
 *
 * Every workload prints every end-to-end metric (untraced run) or
 * every per-layer metric (traced run); perfbench/README.md gives each
 * metric's meaning per workload. The seed only generates inputs: the
 * KV op streams, and the grid's instruction streams.
 */

#ifndef TCORAM_PERFBENCH_WORKLOADS_HH
#define TCORAM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kv_serving.hh"
#include "sim/system_config.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples the value summarizes (runs, ops or calls). */
    std::uint64_t samples = 0;
};

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result (gates, digests). */
    std::vector<std::string> notes;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Benchmark workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();
/** Workloads that run by name but are not in BENCHMARK.json. */
const std::vector<std::string> &diagnosticWorkloadNames();

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end and per-layer metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** Serving config of KV workload @p workload for input seed @p seed. */
tcoram::sim::KvServingConfig kvConfig(const std::string &workload,
                                      std::uint64_t seed);
/** The Figure 6 configs, their instruction streams seeded by @p seed. */
std::vector<tcoram::sim::SystemConfig> paperGridConfigs(std::uint64_t seed);

class Tracer;

struct PathReplay
{
    std::uint64_t accesses = 0;
    /** Crypto-engine calls the replay issued (tree construction
     *  excluded). */
    std::uint64_t cryptoCalls = 0;
};

/**
 * Block ids @p ids (taken modulo one shard's capacity) through a
 * benchmark-owned recursive PathOram of one shard's geometry, built as
 * the library's fused datapath builds it (one bucket key from
 * @p key_seed, one PathCryptoBatch flushed per logical access), with
 * its outermost position map decorated. Spans: "oram.begin" (posmap
 * update + path reads + decrypts, with the "posmap" child) and
 * "oram.finish" (evict + encode + encrypt + the batched write-back
 * flush).
 */
PathReplay pathOramReplay(const std::vector<std::uint64_t> &ids,
                          std::uint32_t shards, std::uint64_t key_seed,
                          Tracer &tracer);

/** True when @p name is a valid metric name: 1-64 of [A-Za-z0-9_.-],
 *  starting with a letter or a digit. */
bool validMetricName(std::string_view name);

/** Run one workload (fatal on an unknown name). */
Result runWorkload(const RunOptions &opt);

} // namespace perfbench

#endif // TCORAM_PERFBENCH_WORKLOADS_HH
