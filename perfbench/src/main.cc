/**
 * @file
 * perfbench_driver: one benchmark run of one workload.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --cli PATH [--out DIR]
 *   perfbench_driver --selfcheck
 *   perfbench_driver --list
 *
 * Prints the host/build fingerprint, one line per metric (name, value,
 * unit, sample count), and as its last line the JSON result object
 * {"correct", "attempted", "failed", "metrics"}. A run with failed ops
 * is still reported, with correct false. Exits non-zero without a
 * result when a correct run could not be measured. --list prints the
 * workload names.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "workloads.hh"

namespace perfbench
{
std::vector<std::string> selfCheck();
} // namespace perfbench

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --cli PATH [--out DIR]\n"
                 "       perfbench_driver --selfcheck | --list\n",
                 why.c_str());
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return !s.empty() && *end == '\0';
}

std::string
absolute(const std::string &path)
{
    char *resolved = ::realpath(path.c_str(), nullptr);
    if (!resolved)
        return path;
    std::string out(resolved);
    std::free(resolved);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selfcheck" || a == "--probe" || a == "--list") {
            opts[a.substr(2)] = "1";
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            opts[a.substr(2)] = argv[++i];
        } else {
            return usage("unexpected argument '" + a + "'");
        }
    }

    // The library's own environment knobs must not leak into the
    // measurement: every cache dir and job count is passed explicitly.
    for (const char *var : {"JETTY_CACHE_DIR", "JETTY_JOBS", "JETTY_SCALE",
                            "JETTY_CACHE_BYTES", "JETTY_WORKER_DIE_AFTER"})
        ::unsetenv(var);
    installChildReaper();
    if (opts.count("list")) {
        for (const std::string &w : workloadNames())
            std::printf("%s\n", w.c_str());
        return 0;
    }

    const std::vector<std::string> bad = selfCheck();
    for (const std::string &b : bad)
        std::fprintf(stderr, "perfbench self-check failed: %s\n", b.c_str());
    if (!bad.empty())
        return 3;
    if (opts.count("selfcheck")) {
        std::printf("perfbench self-check: ok\n");
        return 0;
    }

    Context ctx;
    ctx.workload = opts.count("workload") ? opts["workload"] : "";
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == ctx.workload;
    if (!known)
        return usage("unknown workload '" + ctx.workload + "'");
    if (opts.count("seed") && !parseU64(opts["seed"], ctx.seed))
        return usage("--seed needs an unsigned integer");
    ctx.self = absolute("/proc/self/exe");
    if (opts.count("probe"))
        return probeFirstOp(ctx);

    if (const std::string why = refuseBuild(); !why.empty())
        return usage(why);
    ctx.seconds = opts.count("seconds") ? std::atof(opts["seconds"].c_str())
                                        : 10.0;
    if (!(ctx.seconds > 0) || !std::isfinite(ctx.seconds))
        return usage("--seconds needs a positive number");
    ctx.trace = opts.count("trace") && opts["trace"] == "1";
    if (!opts.count("cli") || ::access(opts["cli"].c_str(), X_OK) != 0)
        return usage("--cli must name the jetty_cli binary");
    ctx.cli = absolute(opts["cli"]);

    const std::string out = opts.count("out") ? opts["out"] : ".bench_build";
    ctx.tmp = out + "/run-" + std::to_string(::getpid());
    ctx.spansOut = out + "/spans-" + ctx.workload + "-seed" +
                   std::to_string(ctx.seed) + ".json";
    if (const std::string e = makeDirs(ctx.tmp); !e.empty())
        return usage(e);

    std::printf("# fingerprint %s\n", fingerprint().dumpCompact().c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0);
    std::fflush(stdout);

    Result result;
    runWorkload(ctx, result);
    removeTree(ctx.tmp);
    syncFilesystem(out);  // leave no write-back to the next run

    for (const std::string &p : result.problems)
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    if (ctx.trace)
        std::printf("# spans written to %s\n", ctx.spansOut.c_str());

    // A wrong run is still reported (correct false, with what could be
    // measured); a correct run must measure every metric.
    jetty::json::Value metrics = jetty::json::Value::object();
    bool finite = true;
    for (const auto &m : result.metrics) {
        std::printf("# %-32s %14.6g %-6s n=%zu%s%s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.note.empty() ? "" : "  ", m.note.c_str());
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            if (result.correct())
                finite = false;
            continue;
        }
        jetty::json::Value v = jetty::json::Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(m.name, std::move(v));
    }
    if (!finite || result.metrics.empty() || result.attempted == 0) {
        std::fprintf(stderr, "perfbench: run could not be measured\n");
        return 1;
    }
    jetty::json::Value doc = jetty::json::Value::object();
    doc.set("correct", result.correct());
    doc.set("attempted", result.attempted);
    doc.set("failed", result.failed);
    doc.set("metrics", std::move(metrics));
    std::printf("%s\n", doc.dumpCompact().c_str());
    return 0;
}
