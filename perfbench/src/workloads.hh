/**
 * @file
 * The four perfbench workloads (sim-miss, sim-hit, serve-mix,
 * dist-campaign) and the traced layer tour.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** Everything one run needs to know. Paths are relative to the
 *  checkout root, which is the working directory. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string cli;       //!< the jetty_cli binary
    std::string self;      //!< this binary (set-up probes re-exec it)
    std::string tmp;       //!< per-run scratch directory
    std::string spansOut;  //!< where the traced run writes its spans
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run @p ctx.workload untraced (end-to-end metrics) or traced
 *  (per-layer metrics) into @p out. */
void runWorkload(const Context &ctx, Result &out);

/** Set-up probe: the first op of a sim workload in a fresh process.
 *  @return the process exit code. */
int probeFirstOp(const Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
