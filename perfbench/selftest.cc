/**
 * @file
 * The benchmark's own tests: span self-time arithmetic, metric-name
 * validity, and decorator transparency — tracing on or off, the
 * library serves the same KV stats, payloads, shard streams and
 * simulation results (instrumentation never perturbs an observable
 * stream) — and the path replay's datapath against the library's. Run with: python3 perfbench/run.py --self-test
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "sim/kv_serving.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/stat_dump.hh"
#include "trace.hh"
#include "workload/spec_suite.hh"
#include "workloads.hh"

using namespace tcoram;
using perfbench::Tracer;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

void
testNestedSelfTime()
{
    Tracer t;
    t.begin("a", 0);
    t.begin("b", 10);
    t.begin("c", 20);
    t.end(30);
    t.end(50);
    t.end(100);
    check(t.idle(), "nested: every span closed");
    check(t.at("a").totalNs == 100 && t.at("a").selfNs == 60,
          "nested: a = 100 total, 60 self");
    check(t.at("a/b").totalNs == 40 && t.at("a/b").selfNs == 30,
          "nested: a/b = 40 total, 30 self");
    check(t.at("a/b/c").totalNs == 10 && t.at("a/b/c").selfNs == 10,
          "nested: a/b/c = 10 total, 10 self");
    check(t.at("b").calls == 0, "nested: spans keyed by their call path");
}

void
testSiblingSelfTime()
{
    Tracer t;
    t.begin("p", 0);
    t.begin("x", 10);
    t.end(20);
    t.begin("y", 30);
    t.end(60);
    t.begin("x", 70);
    t.end(75);
    t.end(100);
    t.begin("p", 200); // a second call of p, no children
    t.end(210);
    const Tracer::Aggregate p = t.at("p");
    check(p.calls == 2 && p.totalNs == 110 && p.selfNs == 65,
          "siblings: p = 110 total, 65 self over 2 calls");
    check(t.at("p/x").calls == 2 && t.at("p/x").totalNs == 15,
          "siblings: p/x = 15 over 2 calls");
    check(t.at("p/y").totalNs == 30 && t.at("p/y").selfNs == 30,
          "siblings: p/y = 30");
}

void
testForeignThread()
{
    Tracer t;
    std::thread other([&t] {
        Tracer::Scope s(&t, "other");
    });
    other.join();
    check(t.foreignCalls() == 1 && t.aggregates().empty() && t.idle(),
          "a span from another thread is counted, not recorded");
}

void
testMetricNames()
{
    for (const char *bad : {"", "_x", ".x", "a b", "a/b", "a:b", "é"})
        check(!perfbench::validMetricName(bad),
              std::string("rejects metric name '") + bad + "'");
    check(!perfbench::validMetricName(std::string(65, 'a')),
          "rejects a 65-letter metric name");
    check(perfbench::validMetricName(std::string(64, 'a')),
          "accepts a 64-letter metric name");
    std::set<std::string> seen;
    bool all_valid = true, units_valid = true;
    for (const auto *defs :
         {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()})
        for (const perfbench::MetricDef &d : *defs) {
            all_valid = all_valid && perfbench::validMetricName(d.name) &&
                        seen.insert(d.name).second;
            bool ok = !d.unit.empty() && d.unit.size() <= 16;
            for (const char c : d.unit)
                ok = ok && (std::isalnum(static_cast<unsigned char>(c)) ||
                            std::string("_/%.-").find(c) != std::string::npos);
            units_valid = units_valid && ok;
        }
    check(all_valid, "every declared metric name is valid and unique");
    check(units_valid, "every declared unit is valid");
}

sim::KvServingConfig
smallKv(const std::string &workload)
{
    sim::KvServingConfig cfg = perfbench::kvConfig(workload, 7);
    cfg.workload.ranks = 64;
    cfg.workload.opsPerRank = 6;
    return cfg;
}

void
testWorkloadWrapper(Tracer &t)
{
    for (const char *w : {"kv-zipf-read", "kv-uniform-write"}) {
        const sim::KvServingConfig cfg = smallKv(w);
        sim::KvServingConfig traced_cfg = cfg;
        traced_cfg.workload.method = perfbench::kTracedKv;
        sim::KvServingRun plain(cfg), traced(traced_cfg);
        const std::uint64_t calls0 = t.at("workload").calls;
        plain.run();
        traced.run();
        check(t.at("workload").calls > calls0,
              std::string(w) + ": the wrapper records getNext spans");
        check(sim::kvStatsCsv(plain.stats()) ==
                      sim::kvStatsCsv(traced.stats()) &&
                  plain.opsCompleted() == traced.opsCompleted() &&
                  plain.payloadMismatches() == 0 &&
                  traced.payloadMismatches() == 0,
              std::string(w) + ": same KVStats and payloads, traced or not");
        check(plain.streamCsv() == traced.streamCsv(),
              std::string(w) + ": same shard streams, traced or not");
    }
}

/** Serve the same ops through a bare or a decorated device. */
std::vector<std::string>
serveOps(bool decorate, Tracer &t)
{
    const sim::KvServingConfig cfg = smallKv("kv-uniform-write");
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(cfg.seed);
    oram::OramDeviceSpec spec;
    spec.kind = "functional";
    spec.shards = cfg.shards;
    const auto dev = oram::makeOramDevice(
        spec, oram::OramConfig::benchConfig(), mem, rng);
    perfbench::TracedOramDevice traced(*dev, t);
    timing::OramDeviceIf &target =
        decorate ? static_cast<timing::OramDeviceIf &>(traced) : *dev;
    const sim::KVBackend backend(cfg.kv);
    sim::KvOpCursor cursor(backend);
    std::vector<std::string> served;
    std::vector<std::uint8_t> value;
    Cycles now = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        const std::uint64_t key = (i * 37) % 97;
        if (i % 3 == 0) {
            sim::KvServingRun::buildValue(value, key, i, 17 + i % 150);
            cursor.beginPut(key, value);
        } else {
            cursor.beginGet(key);
        }
        sim::kvRunSync(cursor, target, 0, now);
        served.push_back(std::to_string(now) + ":" +
                         std::string(cursor.value().begin(),
                                     cursor.value().end()));
    }
    return served;
}

void
testDeviceDecorator(Tracer &t)
{
    const std::uint64_t calls0 = t.at("submit").calls;
    const std::vector<std::string> plain = serveOps(false, t);
    const std::vector<std::string> traced = serveOps(true, t);
    check(t.at("submit").calls > calls0,
          "device decorator records submit spans");
    check(plain == traced,
          "same served payloads and completion cycles, traced or not");
}

void
testPositionMapDecorator(Tracer &t)
{
    oram::OramConfig cfg = oram::OramConfig::benchConfig();
    cfg.numBlocks = 1024;
    oram::FlatPositionMap plain_map(cfg.numBlocks), inner(cfg.numBlocks);
    perfbench::TracedPositionMap traced_map(inner, t);
    oram::PathOram plain(cfg, plain_map, 11), traced(cfg, traced_map, 11);
    std::vector<std::uint8_t> a(cfg.blockBytes), b(cfg.blockBytes);
    bool same = true;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const BlockId id = (i * 131) % cfg.numBlocks;
        const oram::Op op = i % 2 ? oram::Op::Write : oram::Op::Read;
        std::vector<std::uint8_t> data(cfg.blockBytes,
                                       static_cast<std::uint8_t>(i));
        const std::span<const std::uint8_t> in =
            op == oram::Op::Write ? std::span<const std::uint8_t>(data)
                                  : std::span<const std::uint8_t>();
        plain.accessInto(id, op, in, a);
        traced.accessInto(id, op, in, b);
        same = same && a == b &&
               plain.stash().size() == traced.stash().size() &&
               plain.bucketCiphertext(0) == traced.bucketCiphertext(0);
    }
    check(t.at("posmap").calls >= 500,
          "position-map decorator records update spans");
    check(same, "same payloads, stash and DRAM image, traced or not");
}

/**
 * The path replay behind oram.posmap/read/writeback_ns_per_acc runs
 * the library's fused datapath: its crypto-engine calls per access
 * equal a functional device's (H+1 path reads + one batched flush).
 */
void
testPathReplayMatchesDevice(Tracer &t)
{
    const sim::KvServingConfig cfg = smallKv("kv-uniform-write");
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(cfg.seed);
    oram::OramDeviceSpec spec;
    spec.kind = "functional";
    spec.keySeed = 99;
    const auto dev = oram::makeOramDevice(
        spec, oram::OramConfig::benchConfig(), mem, rng);
    auto &functional = dynamic_cast<oram::FunctionalOramDevice &>(*dev);
    perfbench::TracedOramDevice traced(*dev, t);
    const sim::KVBackend backend(cfg.kv);
    sim::KvOpCursor cursor(backend);
    std::vector<std::uint8_t> value;
    Cycles now = 0;
    const std::uint64_t calls0 = functional.functionalOram().cryptoCalls();
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = (i * 37) % 97;
        if (i % 2 == 0) {
            sim::KvServingRun::buildValue(value, key, i, 17 + i % 150);
            cursor.beginPut(key, value);
        } else {
            cursor.beginGet(key);
        }
        sim::kvRunSync(cursor, traced, 0, now);
    }
    const std::vector<std::uint64_t> ids = traced.blockIds();
    const double device =
        static_cast<double>(functional.functionalOram().cryptoCalls() -
                            calls0) /
        static_cast<double>(ids.size());
    const perfbench::PathReplay rep =
        perfbench::pathOramReplay(ids, 1, spec.keySeed, t);
    const double replay = static_cast<double>(rep.cryptoCalls) /
                          static_cast<double>(rep.accesses);
    check(!ids.empty() && rep.accesses == ids.size() && replay == device &&
              device == std::floor(device) && device >= 2.0,
          "path replay issues the device's crypto calls per access (" +
              std::to_string(replay) + " vs " + std::to_string(device) +
              ")");
    check(t.at("oram.finish").calls == ids.size() &&
              t.at("oram.begin/posmap").calls == ids.size(),
          "path replay records one begin/posmap/finish span per access");
}

void
testMemoryDecorator(Tracer &t)
{
    const std::vector<sim::SystemConfig> configs =
        perfbench::paperGridConfigs(3);
    const workload::Profile profile = workload::specProfile("mcf");
    bool same = true;
    for (const sim::SystemConfig &cfg : configs) {
        sim::SystemConfig traced_cfg = cfg;
        traced_cfg.memoryBackend = cfg.scheme == sim::Scheme::BaseDram
                                       ? perfbench::kTracedFlat
                                       : perfbench::kTracedBanked;
        sim::SecureProcessor plain(cfg, profile), traced(traced_cfg, profile);
        same = same && sim::csvRow(plain.run(50'000, 50'000)) ==
                           sim::csvRow(traced.run(50'000, 50'000));
    }
    check(t.at("dram").calls > 0, "memory decorator records dram spans");
    check(same, "same simulation result per paper config, traced or not");
}

} // namespace

int
main()
{
    setQuiet(true);
    testNestedSelfTime();
    testSiblingSelfTime();
    testForeignThread();
    testMetricNames();
    Tracer tracer;
    perfbench::registerTracedKv(tracer);
    perfbench::registerTracedMemory(tracer);
    testWorkloadWrapper(tracer);
    testDeviceDecorator(tracer);
    testPositionMapDecorator(tracer);
    testPathReplayMatchesDevice(tracer);
    testMemoryDecorator(tracer);
    // run.py --self-test checks these against BENCHMARK.json.
    for (const std::string &w : perfbench::workloadNames())
        std::printf("declared workload %s\n", w.c_str());
    for (const auto *defs :
         {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()})
        for (const perfbench::MetricDef &d : *defs)
            std::printf("declared metric %s %s\n", d.name.c_str(),
                        d.unit.c_str());
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
