/**
 * @file
 * Self-checks of the harness's own arithmetic, run at the start of every
 * benchmark run (and alone with --selfcheck): a wrong percentile, self
 * time or weighted mean would silently skew every number it reports.
 */

#include <cmath>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

namespace
{

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

} // namespace

std::vector<std::string>
selfCheck()
{
    std::vector<std::string> bad;
    auto expect = [&bad](bool ok, const std::string &what) {
        if (!ok)
            bad.push_back(what);
    };

    // Median: odd and even counts, order-independent.
    expect(near(median({3, 1, 2}), 2), "median of 3");
    expect(near(median({4, 1, 3, 2}), 2.5), "median of 4");
    expect(std::isnan(median({})), "median of none");

    // Nearest-rank percentile and the samples beyond it.
    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(1001 - i);  // reversed: sorting is exercised
    const Percentile p99 = percentile(thousand, 99);
    expect(near(p99.value, 990) && p99.samples == 1000 && p99.beyond == 10,
           "p99 of 1..1000 is 990 with 10 beyond");
    const Percentile p50 = percentile(thousand, 50);
    expect(near(p50.value, 500) && p50.beyond == 500, "p50 of 1..1000");
    const Percentile p100 = percentile({5, 7, 6}, 100);
    expect(near(p100.value, 7) && p100.beyond == 0, "p100 is the max");
    const Percentile small = percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99);
    expect(near(small.value, 10) && small.beyond == 0,
           "p99 of 10 samples is the max with none beyond");

    // Weighted aggregation: weights are snoop misses, so the result is
    // sum(x * w) / sum(w), not the plain mean.
    expect(near(weightedMean({{10, 1}, {40, 3}}), 32.5), "weighted mean");
    expect(near(weightedMean({{10, 0}, {40, 2}}), 40), "zero weight ignored");
    expect(std::isnan(weightedMean({})), "weighted mean of none");

    // Self time: parent [0,10] with children [1,3], [2,5] (overlapping,
    // union [1,5]) and [8,12] (clipped to [8,10]); grandchild [1.5,2.5]
    // inside the first child.
    const std::vector<Span> spans = {
        {"root", 0, 10, -1, 0}, {"a", 1, 3, 0, 0},   {"b", 2, 5, 0, 0},
        {"c", 8, 12, 0, 0},     {"g", 1.5, 2.5, 1, 0}, {"other", 0, 1, -1, 1},
    };
    const std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 10 - 4 - 2), "root self time = 10 - |[1,5]u[8,10]|");
    expect(near(self[1], 2 - 1), "child self time minus grandchild");
    expect(near(self[2], 3), "leaf self time is its duration");
    expect(near(self[4], 1), "grandchild self time");
    expect(near(self[5], 1), "unrelated root untouched");

    // The correctness digest ignores timing and nothing else.
    std::string err;
    const auto a = jetty::json::parse(
        R"({"run":{"timing":{"sim_seconds":1},"arch":{"l1_hits":5},)"
        R"("per_bus":[],"filters":[{"coverage":0.5}]}})",
        &err);
    const auto b = jetty::json::parse(
        R"({"run":{"timing":{"sim_seconds":2},"arch":{"l1_hits":5},)"
        R"("per_bus":[],"filters":[{"coverage":0.5}]}})",
        &err);
    const auto c = jetty::json::parse(
        R"({"run":{"timing":{"sim_seconds":1},"arch":{"l1_hits":6},)"
        R"("per_bus":[],"filters":[{"coverage":0.5}]}})",
        &err);
    expect(err.empty() && simDigest(a) == simDigest(b) &&
               simDigest(a) != simDigest(c) && simDigest(a) != 0,
           "simDigest ignores timing only");
    return bad;
}

} // namespace perfbench
