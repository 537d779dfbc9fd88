/**
 * @file
 * The benchmark driver. Run through perfbench/run.py, which builds it:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Untraced (--trace 0) it prints every end-to-end metric; traced
 * (--trace 1) every per-layer metric. Each metric gets a readable line
 * with its unit and sample count, and the last line of stdout is one
 * JSON object {correct, attempted, failed, metrics}. Exits 1 when a
 * correctness gate failed, 2 on a bad command line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common/log.hh"
#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
                 why);
    for (const auto *names : {&perfbench::workloadNames(),
                              &perfbench::diagnosticWorkloadNames()})
        for (const std::string &w : *names)
            std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *end != '\0')
        usage((std::string(flag) + " needs a whole number").c_str());
    return v;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

} // namespace

int
main(int argc, char **argv)
{
    tcoram::setQuiet(true);
    perfbench::RunOptions opt;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string(flag) + " needs a value").c_str());
        const char *val = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            opt.workload = val;
            have_workload = true;
        } else if (std::strcmp(flag, "--seed") == 0) {
            opt.seed = parseUnsigned(val, flag);
            have_seed = true;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            opt.seconds = static_cast<double>(parseUnsigned(val, flag));
            have_seconds = opt.seconds >= 1;
        } else if (std::strcmp(flag, "--trace") == 0) {
            const std::uint64_t t = parseUnsigned(val, flag);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
            have_trace = true;
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (>= 1) and --trace are all "
              "required");
    bool known = false;
    for (const auto *names : {&perfbench::workloadNames(),
                              &perfbench::diagnosticWorkloadNames()})
        for (const std::string &w : *names)
            known = known || w == opt.workload;
    if (!known)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("workload %s seed %llu seconds %.0f trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    perfbench::Result res = perfbench::runWorkload(opt);

    // The printed set must be exactly the declared one.
    std::set<std::string> want, got;
    for (const perfbench::MetricDef &d :
         opt.trace ? perfbench::perLayerMetrics()
                   : perfbench::endToEndMetrics())
        want.insert(d.name);
    for (const perfbench::Metric &m : res.metrics) {
        if (!perfbench::validMetricName(m.name) ||
            !got.insert(m.name).second) {
            res.notes.push_back("FAIL bad or repeated metric name " + m.name);
            ++res.failed;
        }
    }
    if (got != want) {
        res.notes.push_back("FAIL printed metrics differ from the declared "
                            "set");
        ++res.failed;
    }

    for (const std::string &n : res.notes)
        std::printf("%s\n", n.c_str());
    for (const perfbench::Metric &m : res.metrics)
        std::printf("metric %-32s %.17g %s (samples %llu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    std::printf("attempted %llu failed %llu failed_op_frac %.17g\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 1.0);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const perfbench::Metric &m = res.metrics[i];
        std::printf(i ? ", " : "");
        printJsonString(m.name);
        std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
        printJsonString(m.unit);
        std::printf("}");
    }
    std::printf("}}\n");
    return res.failed == 0 && res.attempted > 0 ? 0 : 1;
}
