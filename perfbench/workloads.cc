#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_common.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "crypto/prf.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "oram/sharded_device.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/stat_dump.hh"
#include "timing/epoch_schedule.hh"
#include "trace.hh"

namespace perfbench {

using namespace tcoram;

namespace {

// Run length is part of each workload's definition: the Zipf get tail
// grows with ops per session because hot-key sessions starve.
constexpr std::uint64_t kZipfOpsPerSession = 8;
constexpr std::uint64_t kUniformOpsPerSession = 72;
/**
 * A run repeats its workload until --seconds have passed, cycling
 * through kSimSeeds input seeds derived from --seed. Simulated metrics
 * are the median over those input seeds (each repeats exactly). Host
 * times are taken over every repetition after the first kWarmupReps,
 * which warm caches, allocator and clock, and reported at their fast
 * end (fastEnd()).
 */
constexpr unsigned kSimSeeds = 9;
constexpr unsigned kWarmupReps = 2;
/** Figure 6 run length: measured + warm-up instructions per cell. */
constexpr InstCount kGridInsts = bench::kInsts;
constexpr InstCount kGridWarmup = bench::kWarmup;
constexpr unsigned kGridThreads = 2;
constexpr unsigned kGridSetups = 5;
/** dynamic_R4_E4's row in paperGridConfigs(). */
constexpr std::size_t kDynamicRow = 2;
/** No measuring loop starts a new repetition past this. */
constexpr double kHardStopS = 120.0;
/** Traced KV runs: untraced/traced pairs for trace.overhead_pct. */
constexpr unsigned kTracePairs = 3;

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(Tracer::nowNs() - t0) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The fast end of a sample of host times: its lower decile (linear
 * interpolation). On a shared host, outside load only ever adds time,
 * and it comes in stretches of seconds that slow a repetition by up to
 * 2x; the fast end of a run's repetitions moves far less between runs
 * than their median does.
 */
double
fastEnd(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = 0.1 * static_cast<double>(v.size() - 1);
    const std::size_t k = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(k);
    return k + 1 < v.size() ? v[k] + frac * (v[k + 1] - v[k]) : v[k];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string
fmt(const char *format, double a)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, a);
    return buf;
}

/** 64-bit FNV-1a, printed as the grid and stream digests. */
std::uint64_t
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : bytes) {
        h ^= static_cast<std::uint8_t>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Calls @p rep(i) for i = 0, 1, ... until --seconds have passed and at
 * least kSimSeeds + 1 repetitions ran, so that every input seed ran
 * and input seed 0 ran twice (the repeat-seed identity gate always has
 * a pair to compare), or until the hard stop. Notes how many
 * repetitions repeated an input seed.
 */
template <typename Rep>
void
repeatFor(const RunOptions &opt, Result &res, Rep rep)
{
    const std::int64_t t_start = Tracer::nowNs();
    unsigned i = 0;
    for (;; ++i) {
        const double elapsed = secondsSince(t_start);
        if ((i > kSimSeeds && elapsed >= opt.seconds) ||
            elapsed >= kHardStopS)
            break;
        rep(i);
    }
    if (i <= kSimSeeds) {
        res.notes.push_back("FAIL hard stop before input seed 0 repeated");
        ++res.failed;
    }
    res.notes.push_back(fmt("repeat-seed identity checked on %.0f repetitions",
                            i > kSimSeeds ? i - kSimSeeds : 0));
}

/** Collects metrics under their declared units. */
class MetricSink
{
  public:
    explicit MetricSink(Result &r) : r_(r) {}

    void
    add(const std::string &name, double value, std::uint64_t samples)
    {
        if (!std::isfinite(value)) {
            r_.notes.push_back("FAIL metric " + name + " is not finite");
            ++r_.failed;
            value = 0.0;
        }
        r_.metrics.push_back({name, value, unitOf(name), samples});
    }

    /** A layer this workload never enters: reads 0 from 0 samples. */
    void absent(const std::string &name) { add(name, 0.0, 0); }

  private:
    static std::string
    unitOf(const std::string &name)
    {
        for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
            for (const MetricDef &d : *defs)
                if (d.name == name)
                    return d.unit;
        tcoram_fatal("perfbench: undeclared metric ", name);
    }

    Result &r_;
};

// ---------------------------------------------------------------------
// KV serving
// ---------------------------------------------------------------------

bool
isZipf(const std::string &workload)
{
    return workload == "kv-zipf-read";
}

/** What a single-producer serving run simulates: repeats exactly for
 *  one input seed. */
struct KvSim
{
    std::uint64_t ops = 0;
    Cycles lastDone = 0;
    Cycles getP50 = 0, getP999 = 0, putP50 = 0, putP999 = 0;
    std::uint64_t streamDigest = 0;
    std::string statsCsv;

    bool
    operator==(const KvSim &o) const
    {
        return ops == o.ops && lastDone == o.lastDone &&
               getP50 == o.getP50 && getP999 == o.getP999 &&
               putP50 == o.putP50 && putP999 == o.putP999 &&
               streamDigest == o.streamDigest && statsCsv == o.statsCsv;
    }
};

KvSim
simOf(const sim::KvServingRun &run)
{
    KvSim s;
    s.ops = run.opsCompleted();
    for (std::uint32_t sid = 0; sid < run.sessionCount(); ++sid)
        s.lastDone =
            std::max(s.lastDone, run.scheduler().stats(sid).lastCompletion);
    s.getP50 = run.getLatencyPercentile(0.50);
    s.getP999 = run.getLatencyPercentile(0.999);
    s.putP50 = run.putLatencyPercentile(0.50);
    s.putP999 = run.putLatencyPercentile(0.999);
    s.streamDigest = digest(run.streamCsv());
    s.statsCsv = sim::kvStatsCsv(run.stats());
    return s;
}

/**
 * The KV correctness gates: every token retired, zero payload
 * mismatches, zero failed puts, and every shard's stream exactly one
 * shardPeriod(i) apart. @return failed ops (every op of the run when
 * a run-level gate fails); failures are described in @p notes.
 */
std::uint64_t
kvGates(const sim::KvServingRun &run, std::vector<std::string> &notes)
{
    std::uint64_t failed = 0;
    const std::uint64_t mismatches = run.payloadMismatches();
    const std::uint64_t failed_puts = run.stats().failedPuts;
    if (mismatches)
        notes.push_back(fmt("FAIL %.0f payload mismatches", mismatches));
    if (failed_puts)
        notes.push_back(fmt("FAIL %.0f failed puts", failed_puts));
    failed += mismatches + failed_puts;
    bool periodic = true;
    for (std::uint32_t i = 0; i < run.config().shards; ++i) {
        const std::vector<Cycles> starts = run.shardStarts(i);
        for (std::size_t k = 1; k < starts.size(); ++k)
            periodic = periodic && starts[k] - starts[k - 1] ==
                                       run.shardPeriod(i);
    }
    if (!periodic)
        notes.push_back("FAIL a shard stream is not exactly periodic");
    if (!run.allTokensRetired())
        notes.push_back("FAIL tokens left unretired");
    if (!periodic || !run.allTokensRetired())
        failed = std::max(failed, run.opsCompleted());
    return failed;
}

void
kvUntraced(const RunOptions &opt, Result &res)
{
    const bool zipf = isZipf(opt.workload);
    std::vector<KvSim> sims;
    std::vector<double> setup_s, s_per_op;
    repeatFor(opt, res, [&](unsigned i) {
        const sim::KvServingConfig cfg =
            kvConfig(opt.workload, mixSeed(opt.seed, i % kSimSeeds));
        const std::int64_t t0 = Tracer::nowNs();
        sim::KvServingRun run(cfg);
        const std::int64_t t1 = Tracer::nowNs();
        run.run();
        const std::int64_t t2 = Tracer::nowNs();
        if (i >= kWarmupReps) {
            setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
            s_per_op.push_back(static_cast<double>(t2 - t1) * 1e-9 /
                               static_cast<double>(run.opsCompleted()));
        }
        res.attempted += run.opsCompleted();
        std::uint64_t failed = kvGates(run, res.notes);
        const KvSim s = simOf(run);
        if (i < kSimSeeds) {
            sims.push_back(s);
        } else if (!(s == sims[i % kSimSeeds])) {
            res.notes.push_back("FAIL simulated stats differ between two "
                                "runs of one input seed");
            failed = run.opsCompleted();
        }
        res.failed += failed;
    });

    std::vector<double> rate, get50, get999, put50, put999;
    for (std::size_t k = 0; k < sims.size(); ++k) {
        const KvSim &s = sims[k];
        rate.push_back(1e6 * ratio(static_cast<double>(s.ops),
                                   static_cast<double>(s.lastDone)));
        get50.push_back(static_cast<double>(s.getP50));
        get999.push_back(static_cast<double>(s.getP999));
        put50.push_back(static_cast<double>(s.putP50));
        put999.push_back(static_cast<double>(s.putP999));
        char buf[96];
        std::snprintf(buf, sizeof(buf), "input seed %zu: stream digest %016llx",
                      k, static_cast<unsigned long long>(s.streamDigest));
        res.notes.push_back(buf);
    }
    MetricSink m(res);
    const auto n_runs = static_cast<std::uint64_t>(s_per_op.size());
    m.add("host_rate", ratio(1.0, fastEnd(s_per_op)), n_runs);
    m.add("setup_s", fastEnd(setup_s), n_runs);
    m.add("peak_rss_mb", peakRssMb(), 1);
    m.add("sim_rate", median(rate), sims.size());
    // The latency a workload is about: reads under Zipf, writes under
    // the uniform write-heavy mix (the other kind is a per-layer row).
    m.add("sim_p50_cycles", median(zipf ? get50 : put50),
          sims.size());
    m.add("sim_tail_cycles", median(zipf ? get999 : put999),
          sims.size());
}

/**
 * One PathOram stage holding packed 8-byte leaf labels: the position
 * map of the stage outside it, mirroring the library's fused recursion
 * (RecursivePathOram::Stage) through PathOram's public
 * beginAccess()/finishAccess() phases: one shared bucket key, and
 * write-backs deferred to the caller's PathCryptoBatch.
 */
class LabelOram : public oram::PositionMapIf
{
  public:
    LabelOram(const oram::OramConfig &cfg, oram::PositionMapIf &inner,
              std::uint64_t key_seed, std::uint64_t entries,
              std::uint64_t cipher_seed, oram::PathCryptoBatch &batch)
        : oram_(cfg, inner, key_seed, 0, crypto::CryptoBackend::Auto,
                cipher_seed),
          perBlock_(cfg.blockBytes / 8), entries_(entries)
    {
        oram_.attachCryptoBatch(&batch);
    }

    const oram::PathOram &oram() const { return oram_; }

    Leaf get(BlockId id) override { return swap(id, nullptr); }
    void set(BlockId id, Leaf leaf) override { swap(id, &leaf); }
    Leaf update(BlockId id, Leaf leaf) override { return swap(id, &leaf); }
    std::uint64_t size() const override { return entries_; }

  private:
    Leaf
    swap(BlockId id, const Leaf *leaf)
    {
        const std::span<std::uint8_t> p = oram_.beginAccess(id / perBlock_);
        std::uint8_t *slot = p.data() + (id % perBlock_) * 8;
        Leaf old = 0;
        std::memcpy(&old, slot, 8);
        if (leaf != nullptr)
            std::memcpy(slot, leaf, 8);
        oram_.finishAccess();
        return old;
    }

    oram::PathOram oram_;
    std::uint64_t perBlock_;
    std::uint64_t entries_;
};

/** A functional shard array like KvServingRun's, for the replay. */
std::unique_ptr<timing::OramDeviceIf>
replayDevice(const sim::KvServingConfig &cfg, dram::MemoryIf &mem, Rng &rng)
{
    oram::OramDeviceSpec spec;
    spec.kind = "functional";
    spec.keySeed = mixSeed(cfg.seed, 0x0de71ce5ull);
    spec.shards = cfg.shards;
    spec.routeSeed = mixSeed(cfg.seed, 0x0072a7e5ull);
    return oram::makeOramDevice(spec, oram::OramConfig::benchConfig(), mem,
                                rng);
}

std::vector<oram::FunctionalOramDevice *>
functionalShards(timing::OramDeviceIf &dev)
{
    std::vector<oram::FunctionalOramDevice *> out;
    auto *sharded = dynamic_cast<oram::ShardedOramDevice *>(&dev);
    if (sharded == nullptr) {
        out.push_back(dynamic_cast<oram::FunctionalOramDevice *>(&dev));
        return out;
    }
    for (std::uint32_t i = 0; i < sharded->shardCount(); ++i)
        out.push_back(
            dynamic_cast<oram::FunctionalOramDevice *>(&sharded->shard(i)));
    return out;
}

struct ReplayStats
{
    std::uint64_t ops = 0;
    std::uint64_t txns = 0;
    std::uint64_t cryptoCalls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t stashPeak = 0;
    std::vector<std::uint64_t> blockIds;
};

/**
 * Serial replay of the workload's ops through KvOpCursor/kvRunSync on
 * a traced functional device: span "kv.op" around each kvRunSync,
 * with its device submits as children. Sessions take turns one op at
 * a time, as the serving driver interleaves them.
 */
ReplayStats
kvReplay(const sim::KvServingConfig &cfg, Tracer &tracer, Result &res)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(cfg.seed);
    const std::unique_ptr<timing::OramDeviceIf> dev =
        replayDevice(cfg, mem, rng);
    const std::vector<oram::FunctionalOramDevice *> shards =
        functionalShards(*dev);
    TracedOramDevice traced(*dev, tracer);
    const sim::KVBackend backend(cfg.kv);
    sim::KvOpCursor cursor(backend);
    const std::unique_ptr<workload::WorkloadSource> source =
        workload::loadWorkload(cfg.workload);

    ReplayStats st;
    auto crypto_calls = [&] {
        std::uint64_t n = 0;
        for (const auto *s : shards)
            n += s->functionalOram().cryptoCalls();
        return n;
    };
    auto bytes_moved = [&] {
        std::uint64_t n = 0;
        for (const auto *s : shards)
            n += s->dataBytesMoved();
        return n;
    };
    const std::uint64_t calls0 = crypto_calls();
    const std::uint64_t bytes0 = bytes_moved();

    Cycles now = 0;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint64_t> put_seq(source->ranks(), 0);
    std::vector<bool> ended(source->ranks(), false);
    std::uint64_t mismatches = 0;
    auto run_op = [&](std::uint64_t key) {
        {
            Tracer::Scope s(&tracer, "kv.op");
            kvRunSync(cursor, traced, 0, now);
        }
        ++st.ops;
        for (const auto *s : shards)
            st.stashPeak = std::max<std::uint64_t>(
                st.stashPeak,
                s->functionalOram().dataOram().stash().size());
        if (key != ~std::uint64_t{0} && cursor.hit() &&
            !sim::KvServingRun::checkValue(cursor.value(), key))
            ++mismatches;
    };
    for (bool any = true; any;) {
        any = false;
        for (std::uint32_t r = 0; r < source->ranks(); ++r) {
            if (ended[r])
                continue;
            workload::WorkloadOp op = source->getNext(r);
            while (op.kind == workload::WorkloadOpKind::Think)
                op = source->getNext(r);
            any = true;
            switch (op.kind) {
            case workload::WorkloadOpKind::End:
                ended[r] = true;
                break;
            case workload::WorkloadOpKind::Get:
                cursor.beginGet(op.key);
                run_op(op.key);
                break;
            case workload::WorkloadOpKind::Scan:
                for (std::uint32_t k = 0; k < op.scanLen; ++k) {
                    cursor.beginGet(op.key + k);
                    run_op(op.key + k);
                }
                break;
            case workload::WorkloadOpKind::Put: {
                const std::uint32_t len = std::clamp(
                    op.valueBytes, sim::KvServingRun::kMinValueBytes,
                    static_cast<std::uint32_t>(cfg.kv.maxValueBytes()));
                sim::KvServingRun::buildValue(payload, op.key, put_seq[r]++,
                                              len);
                cursor.beginPut(op.key, payload);
                run_op(~std::uint64_t{0});
                if (cursor.failed())
                    ++mismatches;
                break;
            }
            case workload::WorkloadOpKind::Think:
                break;
            }
        }
    }
    st.txns = cursor.stats().oramReads + cursor.stats().oramWrites;
    st.cryptoCalls = crypto_calls() - calls0;
    st.bytes = bytes_moved() - bytes0;
    st.blockIds = traced.blockIds();
    res.attempted += st.ops;
    if (mismatches) {
        res.notes.push_back(
            fmt("FAIL serial replay: %.0f bad gets or failed puts",
                static_cast<double>(mismatches)));
        res.failed += mismatches;
    }
    return st;
}

} // namespace

PathReplay
pathOramReplay(const std::vector<std::uint64_t> &ids, std::uint32_t shards,
               std::uint64_t key_seed, Tracer &tracer)
{
    oram::OramConfig cfg = oram::OramConfig::benchConfig();
    cfg.numBlocks = (cfg.numBlocks + shards - 1) / shards;
    const std::vector<oram::OramConfig> chain = cfg.recursionChain();
    oram::FlatPositionMap flat(chain.empty() ? cfg.numBlocks
                                             : chain.back().numBlocks);
    // As RecursivePathOram's fused datapath: every tree encrypts under
    // the key of key_seed, and one batch retires all write-backs.
    oram::PathCryptoBatch batch(crypto::keyFromSeed(key_seed),
                                crypto::CryptoBackend::Auto);
    std::vector<std::unique_ptr<LabelOram>> stages;
    oram::PositionMapIf *next = &flat;
    for (std::size_t i = chain.size(); i-- > 0;) {
        const std::uint64_t entries =
            i == 0 ? cfg.numBlocks : chain[i - 1].numBlocks;
        stages.push_back(std::make_unique<LabelOram>(
            chain[i], *next, key_seed + 17 * (i + 1), entries, key_seed,
            batch));
        next = stages.back().get();
    }
    TracedPositionMap map(*next, tracer);
    oram::PathOram data(cfg, map, key_seed, 0, crypto::CryptoBackend::Auto,
                        key_seed);
    data.attachCryptoBatch(&batch);
    auto crypto_calls = [&] {
        std::uint64_t n = data.cryptoCalls() + batch.flushes();
        for (const auto &st : stages)
            n += st->oram().cryptoCalls();
        return n;
    };
    const std::uint64_t calls0 = crypto_calls();
    for (const std::uint64_t id : ids) {
        const BlockId block = id % cfg.numBlocks;
        {
            Tracer::Scope s(&tracer, "oram.begin");
            data.beginAccess(block);
        }
        Tracer::Scope s(&tracer, "oram.finish");
        data.finishAccess();
        batch.flush();
    }
    return {ids.size(), crypto_calls() - calls0};
}

namespace {

/** Component timing: the crypto engine over one access's bytes. */
void
cryptoComponent(std::uint64_t bytes_per_acc, std::uint64_t seed,
                Tracer &tracer, MetricSink &m)
{
    const auto engine = crypto::makeCryptoEngine(crypto::keyFromSeed(seed));
    std::vector<crypto::Block128> buf(std::max<std::uint64_t>(
        1, (bytes_per_acc + 15) / 16));
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i][0] = static_cast<std::uint8_t>(i);
    const std::int64_t t0 = Tracer::nowNs();
    while (secondsSince(t0) < 0.3) {
        Tracer::Scope s(&tracer, "crypto");
        engine->encryptBlocks(buf);
    }
    const Tracer::Aggregate a = tracer.at("crypto");
    const double ns = static_cast<double>(a.totalNs);
    m.add("crypto.ns_per_acc", ratio(ns, static_cast<double>(a.calls)),
          a.calls);
    m.add("crypto.gb_per_s",
          ratio(static_cast<double>(a.calls * buf.size() * 16), ns),
          a.calls);
}

bool
sameOutcome(const sim::KvServingRun &a, const sim::KvServingRun &b)
{
    return a.opsCompleted() == b.opsCompleted() &&
           a.payloadMismatches() == b.payloadMismatches() &&
           sim::kvStatsCsv(a.stats()) == sim::kvStatsCsv(b.stats()) &&
           a.streamCsv() == b.streamCsv();
}

void
kvTraced(const RunOptions &opt, Tracer &tracer, Result &res)
{
    const sim::KvServingConfig cfg =
        kvConfig(opt.workload, mixSeed(opt.seed, 0));
    sim::KvServingConfig traced_cfg = cfg;
    traced_cfg.workload.method = kTracedKv;

    // Alternate untraced and traced runs; keep the last traced one.
    std::vector<double> plain_s, traced_s;
    std::unique_ptr<sim::KvServingRun> run;
    for (unsigned p = 0; p < kTracePairs; ++p) {
        std::unique_ptr<sim::KvServingRun> plain, traced;
        for (unsigned k = 0; k < 2; ++k) {
            const bool tr = (k == 0) == (p % 2 == 1);
            auto r = std::make_unique<sim::KvServingRun>(tr ? traced_cfg
                                                            : cfg);
            const std::int64_t t0 = Tracer::nowNs();
            {
                Tracer::Scope s(tr ? &tracer : nullptr, "serve.run");
                r->run();
            }
            (tr ? traced_s : plain_s).push_back(secondsSince(t0));
            (tr ? traced : plain) = std::move(r);
        }
        res.attempted += plain->opsCompleted() + traced->opsCompleted();
        res.failed += kvGates(*plain, res.notes) + kvGates(*traced, res.notes);
        if (!sameOutcome(*plain, *traced)) {
            res.notes.push_back("FAIL tracing changed KV stats, payloads or "
                                "shard streams");
            res.failed += traced->opsCompleted();
        }
        run = std::move(traced);
    }

    // The serving residual subtracts per-transaction costs of a serial
    // replay, so it needs a serving run on one worker: with more, the
    // workers overlap device work with the driver's. Worker count does
    // not change what a run serves, so the same op stream is used.
    std::string serve_path = "serve.run";
    if (cfg.threads > 1) {
        sim::KvServingConfig serial_cfg = traced_cfg;
        serial_cfg.threads = 1;
        sim::KvServingRun serial(serial_cfg);
        {
            Tracer::Scope s(&tracer, "serve.serial");
            serial.run();
        }
        res.attempted += serial.opsCompleted();
        res.failed += kvGates(serial, res.notes);
        if (!sameOutcome(*run, serial)) {
            res.notes.push_back("FAIL one worker served differently from " +
                                std::to_string(cfg.threads));
            res.failed += serial.opsCompleted();
        }
        serve_path = "serve.serial";
    }

    const ReplayStats rep = kvReplay(cfg, tracer, res);
    const PathReplay path = pathOramReplay(
        rep.blockIds, cfg.shards, mixSeed(cfg.seed, 0x0de71ce5ull), tracer);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "path replay: %.4f crypto calls per access (device %.4f)",
                  ratio(static_cast<double>(path.cryptoCalls),
                        static_cast<double>(path.accesses)),
                  ratio(static_cast<double>(rep.cryptoCalls),
                        static_cast<double>(rep.txns)));
    res.notes.push_back(buf);

    const sim::KVStats ks = run->stats();
    const double ops = static_cast<double>(run->opsCompleted());
    const double serve_txns = static_cast<double>(ks.oramReads + ks.oramWrites);
    const double rep_txns = static_cast<double>(rep.txns);
    const Tracer::Aggregate serve = tracer.at(serve_path);
    const Tracer::Aggregate serve_wl = tracer.at(serve_path + "/workload");
    const Tracer::Aggregate wl = tracer.at("serve.run/workload");
    const Tracer::Aggregate kvop = tracer.at("kv.op");
    const Tracer::Aggregate submit = tracer.at("kv.op/submit");
    const Tracer::Aggregate begin = tracer.at("oram.begin");
    const Tracer::Aggregate posmap = tracer.at("oram.begin/posmap");
    const Tracer::Aggregate finish = tracer.at("oram.finish");
    const double accs = static_cast<double>(rep.blockIds.size());

    const double kv_self = ratio(static_cast<double>(kvop.selfNs), rep_txns);
    const double submit_ns = ratio(static_cast<double>(submit.totalNs),
                                   static_cast<double>(submit.calls));
    const double run_ns = ratio(static_cast<double>(serve.totalNs),
                                static_cast<double>(serve.calls));
    const double wl_ns = ratio(static_cast<double>(serve_wl.totalNs),
                               static_cast<double>(serve.calls));
    const double serve_self =
        ratio(run_ns - wl_ns - serve_txns * (kv_self + submit_ns), ops);

    std::uint64_t real = 0, all = 0;
    for (std::uint32_t i = 0; i < cfg.shards; ++i)
        for (const auto &e : run->shardStream(i)) {
            real += e.real;
            ++all;
        }
    Cycles wait = 0;
    std::uint64_t completed = 0;
    for (std::uint32_t sid = 0; sid < run->sessionCount(); ++sid) {
        wait += run->scheduler().stats(sid).totalSlotWait;
        completed += run->scheduler().stats(sid).completed;
    }

    MetricSink m(res);
    m.add("workload.ns_per_op", ratio(static_cast<double>(wl.totalNs),
                                      static_cast<double>(wl.calls)), wl.calls);
    if (serve_self > 0.0) {
        m.add("serve.self_ns_per_op", serve_self, run->opsCompleted());
    } else {
        // A residual under the noise of its parts is not a time.
        res.notes.push_back(fmt("serve.self_ns_per_op residual %.1f ns is "
                                "not positive; reported absent",
                                serve_self));
        m.absent("serve.self_ns_per_op");
    }
    m.add("serve.real_slot_frac",
          ratio(static_cast<double>(real), static_cast<double>(all)), all);
    m.add("serve.slot_wait_cycles_per_txn",
          ratio(static_cast<double>(wait), static_cast<double>(completed)), completed);
    m.add("serve.fairness_ratio", run->scheduler().fairnessRatio(),
          run->sessionCount());
    m.add("kv.txns_per_op", ratio(serve_txns, ops),
          run->opsCompleted());
    m.add("kv.probes_per_op", ratio(static_cast<double>(ks.probes), ops), run->opsCompleted());
    m.add("kv.hit_rate",
          ratio(static_cast<double>(ks.hits),
                static_cast<double>(ks.hits + ks.misses)), ks.hits + ks.misses);
    m.add("kv.spill_blocks_per_put",
          ratio(static_cast<double>(ks.spillBlocksWritten),
                static_cast<double>(ks.puts)), ks.puts);
    m.add("kv.get_p50_cycles",
          static_cast<double>(run->getLatencyPercentile(0.50)),
          ks.gets);
    m.add("kv.get_p999_cycles",
          static_cast<double>(run->getLatencyPercentile(0.999)),
          ks.gets);
    m.add("kv.put_p50_cycles",
          static_cast<double>(run->putLatencyPercentile(0.50)),
          ks.puts);
    m.add("kv.put_p999_cycles",
          static_cast<double>(run->putLatencyPercentile(0.999)),
          ks.puts);
    m.add("kv.self_ns_per_txn", kv_self, rep.txns);
    m.add("oram.submit_ns_per_txn", submit_ns, submit.calls);
    m.add("oram.posmap_ns_per_acc",
          ratio(static_cast<double>(posmap.totalNs), accs),
          posmap.calls);
    m.add("oram.read_ns_per_acc",
          ratio(static_cast<double>(begin.selfNs), accs), begin.calls);
    m.add("oram.writeback_ns_per_acc",
          ratio(static_cast<double>(finish.totalNs), accs),
          finish.calls);
    m.add("oram.crypto_calls_per_acc",
          ratio(static_cast<double>(rep.cryptoCalls), rep_txns),
          rep.txns);
    const double bytes_per_acc = ratio(static_cast<double>(rep.bytes), rep_txns);
    m.add("oram.bytes_per_acc", bytes_per_acc, rep.txns);
    m.add("oram.stash_peak", static_cast<double>(rep.stashPeak),
          rep.ops);
    cryptoComponent(static_cast<std::uint64_t>(bytes_per_acc), opt.seed,
                    tracer, m);
    for (const char *name :
         {"dram.reqs_per_kinst", "dram.ns_per_req", "cell.self_ns_per_kinst",
          "cell.setup_ms", "cache.llc_mpki"})
        m.absent(name);
    m.add("timing.dummy_frac",
          ratio(static_cast<double>(all - real), static_cast<double>(all)), all);
    for (const char *name : {"engine.parallel_eff",
                             "engine.slowest_cell_share", "sim.paper_err_pct"})
        m.absent(name);
    m.add("trace.overhead_pct",
          100.0 * (ratio(median(traced_s), median(plain_s)) - 1.0),
          kTracePairs);
}

// ---------------------------------------------------------------------
// Paper grid
// ---------------------------------------------------------------------

struct GridSim
{
    double simRate = 0.0;
    double p50Cycles = 0.0;
    double tailCycles = 0.0;
    double paperErrPct = 0.0;
};

/**
 * The §9.3 headline ratios bench_fig6_main prints, against the paper's
 * constants; @return their mean absolute relative error in percent.
 * The model is not validated beyond these ten ratios.
 */
double
paperErrPct(const sim::Grid &g)
{
    const std::size_t nw = g.workloads.size();
    auto perf = [&](std::size_t c) {
        std::vector<double> xs;
        for (std::size_t w = 0; w < nw; ++w)
            xs.push_back(sim::perfOverheadX(g.at(c, w), g.at(0, w)));
        return sim::geoMean(xs);
    };
    auto watts = [&](std::size_t c) {
        double s = 0;
        for (std::size_t w = 0; w < nw; ++w)
            s += g.at(c, w).watts;
        return s / static_cast<double>(nw);
    };
    const double p_oram = perf(1), p_dyn = perf(2), p_s300 = perf(3);
    const double p_s1300 = perf(5);
    const double w_dram = watts(0), w_oram = watts(1), w_dyn = watts(2);
    const double w_s300 = watts(3), w_s500 = watts(4);
    const std::pair<double, double> pairs[] = {
        {p_oram, 3.35},          {w_oram / w_dram, 5.27},
        {p_dyn, 4.03},           {w_dyn / w_dram, 5.89},
        {p_dyn / p_oram, 1.20},  {w_dyn / w_oram, 1.12},
        {p_s300 / p_dyn, 0.94},  {w_s300 / w_dyn, 1.47},
        {w_s500 / w_dyn, 1.34},  {p_s1300 / p_dyn, 1.30},
    };
    double err = 0;
    for (const auto &[measured, paper] : pairs)
        err += std::abs(measured / paper - 1.0);
    return 100.0 * err / static_cast<double>(std::size(pairs));
}

/**
 * Every enforced cell within its schedule: no more rate decisions than
 * the epoch transitions its schedule allows by the cycle it finished,
 * and simulated leakage within |E|·lg|R| for that |E|. @return the
 * cells that break it.
 */
std::uint64_t
leakageGate(const sim::Grid &g, std::vector<std::string> &notes)
{
    std::uint64_t bad = 0;
    for (std::size_t c = 0; c < g.configs.size(); ++c) {
        const sim::SystemConfig &cfg = g.configs[c];
        if (cfg.scheme != sim::Scheme::Static &&
            cfg.scheme != sim::Scheme::Dynamic)
            continue;
        const double lg_r =
            cfg.scheme == sim::Scheme::Static
                ? 0.0
                : std::log2(static_cast<double>(cfg.rateCount));
        const timing::EpochSchedule sched(cfg.epoch0, cfg.epochGrowth,
                                          cfg.tmax);
        for (std::size_t w = 0; w < g.workloads.size(); ++w) {
            const sim::SimResult &r = g.at(c, w);
            const unsigned epochs = sched.epochsUsed(r.cycles);
            if (r.epochsUsed > epochs ||
                r.simLeakageBits > epochs * lg_r + 1e-9) {
                ++bad;
                notes.push_back("FAIL leakage over |E|*lg|R|: " + cfg.name +
                                " x " + g.workloads[w].name);
            }
        }
    }
    return bad;
}

GridSim
gridSim(const sim::Grid &g)
{
    GridSim s;
    double insts = 0, cycles = 0;
    std::vector<double> per_profile;
    for (std::size_t w = 0; w < g.workloads.size(); ++w) {
        const sim::SimResult &r = g.at(kDynamicRow, w);
        insts += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
        per_profile.push_back(static_cast<double>(r.cycles));
    }
    s.simRate = 1e6 * ratio(insts, cycles);
    s.p50Cycles = median(per_profile);
    s.tailCycles = *std::max_element(per_profile.begin(), per_profile.end());
    s.paperErrPct = paperErrPct(g);
    return s;
}

sim::SystemConfig
cellConfig(const sim::SystemConfig &cfg, std::size_t w)
{
    sim::SystemConfig c = cfg;
    c.seed = sim::ExperimentEngine::cellSeed(cfg, w);
    return c;
}

double
gridMinsts(const sim::Grid &g)
{
    return static_cast<double>(g.configs.size() * g.workloads.size()) *
           static_cast<double>(kGridInsts + kGridWarmup) * 1e-6;
}

void
gridUntraced(const RunOptions &opt, Result &res)
{
    const std::vector<workload::Profile> profiles = bench::suiteProfiles();
    const sim::ExperimentEngine engine(kGridThreads);
    std::vector<double> setup_s, s_per_minst;
    std::vector<std::string> csvs;
    std::vector<GridSim> sims;
    repeatFor(opt, res, [&](unsigned i) {
        const unsigned k = i % kSimSeeds;
        const std::vector<sim::SystemConfig> configs =
            paperGridConfigs(mixSeed(opt.seed, k));
        // Set-up: every cell's stack (calibration included), serially.
        // A few milliseconds, so timed kGridSetups times per repetition.
        std::vector<double> setups;
        for (unsigned r = 0; r < kGridSetups; ++r) {
            const std::int64_t t0 = Tracer::nowNs();
            for (const sim::SystemConfig &cfg : configs)
                for (std::size_t w = 0; w < profiles.size(); ++w)
                    sim::SecureProcessor proc(cellConfig(cfg, w), profiles[w]);
            setups.push_back(secondsSince(t0));
        }
        const std::int64_t t1 = Tracer::nowNs();
        const sim::Grid g =
            engine.run(configs, profiles, kGridInsts, kGridWarmup);
        const double wall = secondsSince(t1);
        if (i >= kWarmupReps) {
            setup_s.insert(setup_s.end(), setups.begin(), setups.end());
            s_per_minst.push_back(wall / gridMinsts(g));
        }
        const std::uint64_t cells = configs.size() * profiles.size();
        res.attempted += cells;
        const std::string csv = sim::toCsv(g);
        if (i < kSimSeeds) {
            csvs.push_back(csv);
            sims.push_back(gridSim(g));
            res.failed += leakageGate(g, res.notes);
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "input seed %u: grid summary csv digest %016llx", k,
                          static_cast<unsigned long long>(digest(csv)));
            res.notes.push_back(buf);
        } else if (csv != csvs[k]) {
            res.notes.push_back("FAIL grid summary differs between two runs "
                                "of one input seed");
            res.failed += cells;
        }
    });
    std::vector<double> rate, p50, tail, err;
    for (const GridSim &gs : sims) {
        rate.push_back(gs.simRate);
        p50.push_back(gs.p50Cycles);
        tail.push_back(gs.tailCycles);
        err.push_back(gs.paperErrPct);
    }
    res.notes.push_back(
        fmt("grid paper error %.6f %% (median over input seeds)", median(err)));
    MetricSink m(res);
    m.add("host_rate", ratio(1.0, fastEnd(s_per_minst)), s_per_minst.size());
    m.add("setup_s", fastEnd(setup_s), setup_s.size());
    m.add("peak_rss_mb", peakRssMb(), 1);
    m.add("sim_rate", median(rate), sims.size());
    m.add("sim_p50_cycles", median(p50), sims.size());
    m.add("sim_tail_cycles", median(tail), sims.size());
}

void
gridTraced(const RunOptions &opt, Tracer &tracer, Result &res)
{
    const std::vector<sim::SystemConfig> configs =
        paperGridConfigs(mixSeed(opt.seed, 0));
    const std::vector<workload::Profile> profiles = bench::suiteProfiles();
    const sim::ExperimentEngine engine(kGridThreads);

    // Untraced parallel grid: the wall parallel efficiency divides by.
    std::vector<double> walls;
    sim::Grid grid;
    for (unsigned i = 0; i < 2; ++i) {
        const std::int64_t t0 = Tracer::nowNs();
        grid = engine.run(configs, profiles, kGridInsts, kGridWarmup);
        walls.push_back(secondsSince(t0));
    }
    const std::uint64_t cells = configs.size() * profiles.size();
    res.attempted += cells;
    res.failed += leakageGate(grid, res.notes);

    // Serial passes, plain then traced memory. Per-cell spans of the
    // plain pass (set-up + run) give the engine's efficiency; the
    // traced pass decorates every cell's memory (banked, or flat for
    // base_dram), whose calls happen in calibration and in the run.
    std::vector<double> cell_s;
    double pass_s[2] = {0, 0};
    std::uint64_t reqs = 0;
    double kinsts = 0;
    for (const bool traced : {false, true}) {
        const std::int64_t t_pass = Tracer::nowNs();
        for (std::size_t c = 0; c < configs.size(); ++c)
            for (std::size_t w = 0; w < profiles.size(); ++w) {
                sim::SystemConfig cfg = cellConfig(configs[c], w);
                if (traced)
                    cfg.memoryBackend = cfg.scheme == sim::Scheme::BaseDram
                                            ? kTracedFlat
                                            : kTracedBanked;
                const std::int64_t t0 = Tracer::nowNs();
                std::unique_ptr<sim::SecureProcessor> proc;
                {
                    Tracer::Scope s(&tracer, traced ? "grid.cell.setup"
                                                    : "cell.setup");
                    proc = std::make_unique<sim::SecureProcessor>(
                        cfg, profiles[w]);
                }
                sim::SimResult r;
                {
                    Tracer::Scope s(traced ? &tracer : nullptr,
                                    "grid.cell.run");
                    r = proc->run(kGridInsts, kGridWarmup);
                }
                if (!traced) {
                    cell_s.push_back(secondsSince(t0));
                    continue;
                }
                reqs += proc->memory().requestCount();
                kinsts += static_cast<double>(kGridInsts + kGridWarmup) * 1e-3;
                if (sim::csvRow(r) != sim::csvRow(grid.at(c, w))) {
                    res.notes.push_back(
                        "FAIL traced memory changed the result of " +
                        configs[c].name + " x " + profiles[w].name);
                    ++res.failed;
                }
            }
        pass_s[traced] = secondsSince(t_pass);
    }

    const Tracer::Aggregate setup = tracer.at("cell.setup");
    const Tracer::Aggregate run = tracer.at("grid.cell.run");
    const Tracer::Aggregate run_dram = tracer.at("grid.cell.run/dram");
    const double dram_ns = static_cast<double>(
        tracer.at("grid.cell.setup/dram").totalNs + run_dram.totalNs);
    double llc = 0, insts = 0, real = 0, dummy = 0, calls = 0;
    std::uint64_t stash = 0;
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (std::size_t w = 0; w < profiles.size(); ++w) {
            const sim::SimResult &r = grid.at(c, w);
            llc += static_cast<double>(r.llcMisses);
            insts += static_cast<double>(r.instructions);
            stash = std::max(stash, r.stashHighWater);
            if (c == kDynamicRow) {
                real += static_cast<double>(r.oramReal);
                dummy += static_cast<double>(r.oramDummy);
                calls += static_cast<double>(r.cryptoCalls);
            }
        }
    const std::uint64_t bytes_per_acc =
        grid.at(kDynamicRow, 0).oramBytesPerAccess;
    double cells_total = 0;
    for (const double s : cell_s)
        cells_total += s;

    MetricSink m(res);
    for (const char *name :
         {"workload.ns_per_op", "serve.self_ns_per_op", "serve.real_slot_frac",
          "serve.slot_wait_cycles_per_txn", "serve.fairness_ratio",
          "kv.txns_per_op", "kv.probes_per_op", "kv.hit_rate",
          "kv.spill_blocks_per_put", "kv.get_p50_cycles", "kv.get_p999_cycles",
          "kv.put_p50_cycles", "kv.put_p999_cycles", "kv.self_ns_per_txn",
          "oram.submit_ns_per_txn", "oram.posmap_ns_per_acc",
          "oram.read_ns_per_acc", "oram.writeback_ns_per_acc"})
        m.absent(name);
    m.add("oram.crypto_calls_per_acc", ratio(calls, real + dummy),
          static_cast<std::uint64_t>(real + dummy));
    m.add("oram.bytes_per_acc", static_cast<double>(bytes_per_acc), 1);
    m.add("oram.stash_peak", static_cast<double>(stash), cells);
    cryptoComponent(bytes_per_acc, opt.seed, tracer, m);
    m.add("dram.reqs_per_kinst", ratio(static_cast<double>(reqs), kinsts), reqs);
    m.add("dram.ns_per_req", ratio(dram_ns, static_cast<double>(reqs)), reqs);
    m.add("cell.self_ns_per_kinst",
          ratio(static_cast<double>(run.totalNs - run_dram.totalNs), kinsts),
          run.calls);
    m.add("cell.setup_ms",
          ratio(static_cast<double>(setup.totalNs) * 1e-6,
                static_cast<double>(setup.calls)), setup.calls);
    m.add("cache.llc_mpki", 1000.0 * ratio(llc, insts), cells);
    m.add("timing.dummy_frac", ratio(dummy, real + dummy),
          static_cast<std::uint64_t>(real + dummy));
    m.add("engine.parallel_eff",
          ratio(cells_total, kGridThreads * median(walls)),
          walls.size());
    m.add("engine.slowest_cell_share",
          ratio(*std::max_element(cell_s.begin(), cell_s.end()), cells_total), cells);
    m.add("sim.paper_err_pct", paperErrPct(grid), 10);
    m.add("trace.overhead_pct", 100.0 * (ratio(pass_s[1], pass_s[0]) - 1.0),
          cells);
}

/** The tracer every decorator records into (main thread only). */
Tracer &
processTracer()
{
    static Tracer tracer;
    return tracer;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"kv-uniform-write",
                                                   "paper-grid"};
    return names;
}

const std::vector<std::string> &
diagnosticWorkloadNames()
{
    static const std::vector<std::string> names = {"kv-zipf-read"};
    return names;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"host_rate", "1/s"},           {"setup_s", "s"},
        {"peak_rss_mb", "MB"},          {"sim_rate", "1/Mcycle"},
        {"sim_p50_cycles", "cycles"},   {"sim_tail_cycles", "cycles"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workload.ns_per_op", "ns"},
        {"serve.self_ns_per_op", "ns"},
        {"serve.real_slot_frac", "fraction"},
        {"serve.slot_wait_cycles_per_txn", "cycles"},
        {"serve.fairness_ratio", "ratio"},
        {"kv.txns_per_op", "count"},
        {"kv.probes_per_op", "count"},
        {"kv.hit_rate", "fraction"},
        {"kv.spill_blocks_per_put", "count"},
        {"kv.get_p50_cycles", "cycles"},
        {"kv.get_p999_cycles", "cycles"},
        {"kv.put_p50_cycles", "cycles"},
        {"kv.put_p999_cycles", "cycles"},
        {"kv.self_ns_per_txn", "ns"},
        {"oram.submit_ns_per_txn", "ns"},
        {"oram.posmap_ns_per_acc", "ns"},
        {"oram.read_ns_per_acc", "ns"},
        {"oram.writeback_ns_per_acc", "ns"},
        {"oram.crypto_calls_per_acc", "count"},
        {"oram.bytes_per_acc", "B"},
        {"oram.stash_peak", "blocks"},
        {"crypto.ns_per_acc", "ns"},
        {"crypto.gb_per_s", "GB/s"},
        {"dram.reqs_per_kinst", "count"},
        {"dram.ns_per_req", "ns"},
        {"cell.self_ns_per_kinst", "ns"},
        {"cell.setup_ms", "ms"},
        {"cache.llc_mpki", "count"},
        {"timing.dummy_frac", "fraction"},
        {"engine.parallel_eff", "fraction"},
        {"engine.slowest_cell_share", "fraction"},
        {"sim.paper_err_pct", "%"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

sim::KvServingConfig
kvConfig(const std::string &workload, std::uint64_t seed)
{
    sim::KvServingConfig cfg;
    cfg.shards = 4;
    cfg.rate = 300;
    cfg.lanes = 1;
    cfg.workload.method = "kv";
    cfg.workload.seed = seed;
    cfg.kv.spillPerSlot = 2;
    if (isZipf(workload)) {
        cfg.threads = 1;
        cfg.workload.ranks = 2000;
        cfg.workload.opsPerRank = kZipfOpsPerSession;
        cfg.workload.keySpace = 1024;
        cfg.workload.zipfTheta = 0.99;
        cfg.workload.getFraction = 0.85;
        cfg.workload.scanFraction = 0.05;
        cfg.workload.scanLen = 3;
        cfg.workload.valueBytes = 48;
        cfg.kv.homeSlots = 2048;
    } else if (workload == "kv-uniform-write") {
        cfg.threads = 2;
        cfg.workload.ranks = 512;
        cfg.workload.opsPerRank = kUniformOpsPerSession;
        cfg.workload.keySpace = 2048;
        cfg.workload.zipfTheta = 0.0;
        cfg.workload.getFraction = 0.30;
        cfg.workload.scanFraction = 0.0;
        cfg.workload.valueBytes = 80;
        cfg.kv.homeSlots = 4096;
    } else {
        tcoram_fatal("perfbench: '", workload, "' is not a KV workload");
    }
    return cfg;
}

std::vector<sim::SystemConfig>
paperGridConfigs(std::uint64_t seed)
{
    // bench_fig6_main's grid; one seed for every config, so each
    // profile column replays the same instruction stream under every
    // scheme.
    std::vector<sim::SystemConfig> configs = bench::paperConfigs();
    for (sim::SystemConfig &c : configs)
        c.seed = mixSeed(seed, 0x9f16ull);
    return configs;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (const char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

Result
runWorkload(const RunOptions &opt)
{
    Tracer &tracer = processTracer();
    registerTracedKv(tracer);
    registerTracedMemory(tracer);
    Result res;
    if (opt.workload == "paper-grid")
        opt.trace ? gridTraced(opt, tracer, res) : gridUntraced(opt, res);
    else if (opt.trace)
        kvTraced(opt, tracer, res);
    else
        kvUntraced(opt, res);
    if (tracer.foreignCalls()) {
        res.notes.push_back("FAIL spans recorded off the main thread");
        ++res.failed;
    }
    return res;
}

} // namespace perfbench
