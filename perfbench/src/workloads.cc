#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/experiment_spec.hh"
#include "experiments/experiments.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "sim/latency.hh"
#include "sim/smp_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_source.hh"
#include "verify/golden_smp.hh"

namespace perfbench
{

namespace
{

namespace api = jetty::api;
namespace experiments = jetty::experiments;
namespace service = jetty::service;
namespace sim = jetty::sim;
namespace trace = jetty::trace;
namespace verify = jetty::verify;
using jetty::json::Value;

// ---- thread budget (4-core host: client + daemon + workers <= nproc) --
constexpr unsigned kSimJobs = 1;      // sim-*: one caller, inline sim
constexpr unsigned kServeJobs = 2;    // serve --jobs, two client threads
constexpr unsigned kServeClients = 2;
constexpr unsigned kDistWorkers = 2;  // sweep --workers
constexpr unsigned kWorkerJobs = 1;   // worker --jobs
constexpr unsigned kInProcJobs = kDistWorkers * kWorkerJobs;
constexpr unsigned kSetupJobs = 4;    // set-up only, nothing else runs

constexpr std::size_t kMinOps = 5;
constexpr std::size_t kSetupRepeats = 9;

/** A failed request's latency: beyond any limit, but a finite number
 *  the JSON result can carry. */
constexpr double kFailedLatencyMs = 1e6;

/** Golden-model prefix per processor checked at set-up. */
constexpr std::size_t kGoldenPrefix = 20000;

/** Per-processor prefix the layer tour captures for the sim probes. */
constexpr std::size_t kCapturePerProc = 512 * 1024;

const std::vector<std::string> kAllApps = {"ba", "ch", "em", "ff", "fm",
                                           "lu", "oc", "ra", "rt", "un"};

/** Figure 4's filters plus the hybrid the e2e model metrics read. */
const std::vector<std::string> kFigure4Filters = {
    "EJ-32x4",    "EJ-32x2",    "EJ-16x4",    "EJ-16x2",
    "EJ-8x4",     "EJ-8x2",     "VEJ-32x4-8", "VEJ-32x4-4",
    "VEJ-16x4-8", "VEJ-16x4-4", "HJ(IJ-10x4x7,EJ-32x4)"};

// ---- seeded generation --------------------------------------------------

/** splitmix64: the benchmark's only randomness, fully determined by the
 *  seed argument. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) { return next() % n; }

    /** A factor in [1 - w/2, 1 + w/2). */
    double jitter(double w) { return 1.0 + w * (uniform() - 0.5); }

  private:
    std::uint64_t s_;
};

double
roundScale(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", s);
    return std::strtod(buf, nullptr);
}

/** One resolved spec, ready to execute in-process or send to a daemon. */
struct Job
{
    api::ExperimentSpec spec;
    std::string kind;
    std::size_t cells = 0;
    bool sweep = false;
    Value request;  //!< the framed "run" request
};

Job
makeJob(const std::vector<std::string> &apps, double scale,
        const std::vector<std::string> &filters = {}, bool forceSweep = false)
{
    api::ExperimentSpec spec;
    spec.hasMachine = true;
    spec.apps = apps;
    spec.scale = roundScale(scale);
    spec.filters = filters.empty() ? service::defaultFilterSpecs() : filters;
    Job job;
    std::string err;
    job.kind = forceSweep ? "sweep" : service::chooseKind(spec, &err);
    if (!err.empty())
        throw std::runtime_error("spec kind: " + err);
    err = service::resolveSpec(spec, job.kind);
    if (!err.empty())
        throw std::runtime_error("resolve spec: " + err);
    job.spec = spec;
    job.cells = spec.expand().size();
    job.sweep = job.kind == "sweep";
    job.request = service::makeRunRequest(spec.toJson());
    return job;
}

std::vector<std::string>
sortedApps(std::vector<std::string> apps)
{
    std::sort(apps.begin(), apps.end());
    return apps;
}

/** @p job at its scale times @p factor. */
Job
rescaled(const Job &job, double factor)
{
    return makeJob(job.spec.apps, job.spec.scale * factor, job.spec.filters,
                   job.sweep);
}

// ---- report helpers -----------------------------------------------------

/** Call @p fn on every run node (an object holding "arch"). */
template <typename Fn>
void
forEachRun(const Value &v, Fn &&fn)
{
    if (v.isObject()) {
        if (v.find("arch")) {
            fn(v);
            return;
        }
        for (const auto &member : v.members())
            forEachRun(member.second, fn);
    } else if (v.isArray()) {
        for (const auto &item : v.items())
            forEachRun(item, fn);
    }
}

double
num(const Value &v, const char *key)
{
    const Value *f = v.find(key);
    return f && f->isNumber() ? f->asDouble() : 0.0;
}

std::uint64_t
reportRefs(const Value &report)
{
    std::uint64_t refs = 0;
    forEachRun(report, [&](const Value &run) {
        if (const Value *t = run.find("timing"))
            refs += static_cast<std::uint64_t>(num(*t, "refs"));
    });
    return refs;
}

/** Per-run (value, weight) pairs of the hybrid filter's coverage and
 *  serial snoop-energy saving, weighted by the run's snoop misses. */
struct HybridPairs
{
    std::vector<std::pair<double, double>> coverage;
    std::vector<std::pair<double, double>> energy;

    void
    collect(const Value &report)
    {
        forEachRun(report, [&](const Value &run) {
            const double w = num(*run.find("arch"), "snoop_misses");
            const Value *filters = run.find("filters");
            if (!filters)
                return;
            for (const auto &row : filters->items()) {
                const Value *spec = row.find("spec");
                if (!spec || spec->asString().rfind("HJ(", 0) != 0)
                    continue;
                coverage.emplace_back(100.0 * num(row, "coverage"), w);
                const Value *e = row.find("energy");
                const Value *s = e ? e->find("serial") : nullptr;
                energy.emplace_back(s ? num(*s, "snoop_reduction_pct") : 0.0,
                                    w);
            }
        });
    }

    void
    report(Result &out) const
    {
        out.add("hj_coverage_pct", "%", weightedMean(coverage),
                coverage.size(), "weighted by snoop misses");
        out.add("hj_snoop_energy_saved_pct", "%", weightedMean(energy),
                energy.size(), "weighted by snoop misses");
    }
};

// ---- execution helpers ----------------------------------------------------

/** Detach the disk tier and forget the memory tier: the next request
 *  simulates. */
void
coldCache()
{
    auto &rc = experiments::RunCache::instance();
    rc.setDiskRoot("off");
    rc.clear();
}

/** executeResolved under a span; throws on a diagnostic. */
service::ExecuteResult
executeJob(const Job &job, unsigned jobs, const std::string &span,
           std::uint64_t op, double *seconds = nullptr)
{
    service::ExecuteResult res;
    const double t0 = nowSeconds();
    std::string err;
    {
        SpanScope s(span, op);
        err = service::executeResolved(job.spec, job.kind, jobs, res);
    }
    if (seconds)
        *seconds = nowSeconds() - t0;
    if (!err.empty())
        throw std::runtime_error("execute: " + err);
    return res;
}

/** Publish every cell of @p jobs to the disk tier at @p root. */
void
publishToDisk(const std::vector<const Job *> &jobs, const std::string &root)
{
    auto &rc = experiments::RunCache::instance();
    rc.setDiskRoot(root);
    rc.clear();
    std::vector<experiments::RunRequest> requests;
    for (const Job *job : jobs)
        for (auto &req : job->spec.expand())
            requests.push_back(std::move(req));
    experiments::runMany(requests, kSetupJobs);
    coldCache();
}

using Streams = std::vector<std::vector<trace::TraceRecord>>;

/**
 * Build @p req's Workload and drain every processor's source through
 * nextBatch, at most @p limit records each; the first @p keep of each
 * land in @p kept. @return the records drained.
 */
std::uint64_t
drainStreams(const experiments::RunRequest &req, unsigned nprocs,
             std::size_t limit, std::size_t keep, Streams *kept,
             std::uint64_t op)
{
    std::vector<trace::TraceSourcePtr> sources;
    std::unique_ptr<trace::Workload> wl;
    {
        SpanScope s("trace.makeSource", op);
        wl = std::make_unique<trace::Workload>(req.app, nprocs,
                                               req.accessScale);
        for (unsigned p = 0; p < nprocs; ++p)
            sources.push_back(wl->makeSource(static_cast<jetty::ProcId>(p)));
    }
    if (kept)
        kept->assign(nprocs, {});
    std::vector<trace::TraceRecord> buf(4096);
    std::uint64_t total = 0;
    SpanScope s("trace.nextBatch", op);
    for (unsigned p = 0; p < nprocs; ++p) {
        std::size_t taken = 0;
        while (taken < limit) {
            const std::size_t want = std::min(buf.size(), limit - taken);
            const std::size_t n = sources[p]->nextBatch(buf.data(), want);
            if (n == 0)
                break;
            if (kept && (*kept)[p].size() < keep) {
                const std::size_t k = std::min(n, keep - (*kept)[p].size());
                (*kept)[p].insert((*kept)[p].end(), buf.begin(),
                                  buf.begin() + static_cast<long>(k));
            }
            taken += n;
            if (n < want)
                break;
        }
        total += taken;
    }
    return total;
}

std::vector<trace::TraceSourcePtr>
vectorSources(const Streams &streams)
{
    std::vector<trace::TraceSourcePtr> out;
    for (const auto &s : streams)
        out.push_back(std::make_unique<trace::VectorTraceSource>(s));
    return out;
}

/** Set-up check: a prefix of each cell's streams through the real
 *  system and the golden model must leave identical machine state. */
std::string
goldenPrefixCheck(const Job &job)
{
    const sim::SmpConfig cfg = job.spec.smpConfig();
    for (const auto &req : job.spec.expand()) {
        Streams streams;
        drainStreams(req, cfg.nprocs, kGoldenPrefix, kGoldenPrefix, &streams,
                     0);
        sim::SmpSystem real(cfg);
        real.attachSources(vectorSources(streams));
        real.run();
        verify::GoldenSmp gold(cfg);
        gold.attachSources(vectorSources(streams));
        gold.run();
        const std::string diff =
            verify::diffSnapshots(gold.snapshot(), verify::snapshotOf(real));
        if (!diff.empty())
            return "golden prefix mismatch on " + req.app.abbrev + ": " + diff;
    }
    return "";
}

// ---- child-process helpers -----------------------------------------------

/** Ping @p sock until the daemon answers (or @p timeout passes).
 *  @return the time of the answer, or NaN. */
double
waitForPing(const std::string &sock, double timeout)
{
    service::ClientOptions opts;
    opts.retries = 0;
    opts.timeoutSeconds = 2.0;
    const double deadline = nowSeconds() + timeout;
    while (nowSeconds() < deadline) {
        Value resp;
        const std::string err = service::requestResponse(
            sock, service::makeRequest("ping"), resp, opts);
        if (err.empty() && resp.find("ok") && resp.find("ok")->asBool())
            return nowSeconds();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::numeric_limits<double>::quiet_NaN();
}

/** A `jetty_cli serve` daemon on its own socket and cache dir. */
struct Daemon
{
    Child child;
    std::string sock;
    double readySeconds = 0;  //!< spawn -> first ping answered

    std::string
    start(const Context &ctx, const std::string &name,
          const std::string &cacheDir)
    {
        sock = ctx.tmp + "/" + name + ".sock";
        const double t0 = nowSeconds();
        std::string err = child.spawn(
            {ctx.cli, "serve", "--socket", sock, "--jobs",
             std::to_string(kServeJobs), "--cache-dir", cacheDir},
            ctx.tmp + "/" + name + ".log", false);
        if (!err.empty())
            return err;
        const double ready = waitForPing(sock, 30.0);
        if (std::isnan(ready))
            return "daemon " + name + " never answered ping";
        readySeconds = ready - t0;
        return "";
    }

    /** Shut down through the protocol; kill if it does not exit. */
    void
    stop()
    {
        if (!child.running())
            return;
        service::ClientOptions opts;
        opts.retries = 0;
        opts.timeoutSeconds = 5.0;
        Value resp;
        service::requestResponse(sock, service::makeRequest("shutdown"),
                                 resp, opts);
        child.waitOrKill(10.0);
    }

    Value
    stats()
    {
        service::ClientOptions opts;
        opts.retries = 0;
        Value resp;
        service::requestResponse(sock, service::makeRequest("stats"), resp,
                                 opts);
        return resp;
    }
};

/** One `jetty_cli sweep --workers` campaign, timed from its live event
 *  lines (the coordinator flushes one per ShardEvent). */
struct Campaign
{
    struct Shard
    {
        double assigned = -1;
        double started = -1;
        double completed = -1;
        int worker = -1;
    };

    std::string err;
    double spawn = 0;  //!< absolute times, steady clock
    double exit = 0;
    double firstAssigned = -1;
    double firstStarted = -1;
    std::vector<Shard> shards;
    std::vector<double> workerShardSeconds;  //!< from --events
    Value report;
    std::uint64_t simulated = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t memHits = 0;

    double wall() const { return exit - spawn; }
};

void
parseCampaignLine(const std::string &line, double t, Campaign &c)
{
    unsigned long long a = 0;
    unsigned long long b = 0;
    unsigned long long d = 0;
    unsigned long long e = 0;
    if (std::sscanf(line.c_str(),
                    "%llu shards (%llu simulated, %llu disk hits, %llu mem",
                    &a, &b, &d, &e) == 4) {
        c.simulated = b;
        c.diskHits = d;
        c.memHits = e;
        return;
    }
    std::istringstream in(line);
    std::string word;
    std::string type;
    unsigned long long id = 0;
    if (!(in >> word) || word != "shard" || !(in >> id >> type))
        return;
    if (c.shards.size() <= id)
        c.shards.resize(id + 1);
    Campaign::Shard &s = c.shards[id];
    std::string rest;
    while (in >> rest)
        if (rest.rfind("worker=", 0) == 0)
            s.worker = std::atoi(rest.c_str() + 7);
    if (type == "assigned" || type == "stolen") {
        if (s.assigned < 0)
            s.assigned = t;
        if (c.firstAssigned < 0)
            c.firstAssigned = t;
    } else if (type == "started") {
        if (s.started < 0)
            s.started = t;
        if (c.firstStarted < 0)
            c.firstStarted = t;
    } else if (type == "completed") {
        s.completed = t;
    }
}

Campaign
runCampaign(const Context &ctx, const std::string &specPath,
            const std::string &dir, bool resume, std::uint64_t op)
{
    Campaign c;
    if (!resume) {
        removeTree(dir);
        if (std::string e = makeDirs(dir); !e.empty()) {
            c.err = e;
            return c;
        }
    }
    const std::vector<std::string> argv = {
        ctx.cli,       "sweep",
        "--spec",      specPath,
        "--workers",   std::to_string(kDistWorkers),
        "--jobs",      std::to_string(kWorkerJobs),
        "--cache-dir", resume ? std::string("off") : dir + "/cache",
        "--ledger",    dir + "/ledger",
        "--events",    dir + "/events.json",
        "--json",      dir + "/report.json"};
    Child child;
    c.spawn = nowSeconds();
    c.err = child.spawn(argv, dir + "/sweep.log", true);
    if (!c.err.empty())
        return c;
    std::string buf;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(child.stdoutFd(), chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const double t = nowSeconds();
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            parseCampaignLine(buf.substr(0, nl), t, c);
            buf.erase(0, nl + 1);
        }
    }
    const int status = child.wait();
    c.exit = nowSeconds();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        c.err = "sweep --workers exited with status " + std::to_string(status);
        return c;
    }
    std::string err;
    c.report = jetty::json::parseFile(dir + "/report.json", &err);
    if (!err.empty()) {
        c.err = "campaign report: " + err;
        return c;
    }
    const Value events = jetty::json::parseFile(dir + "/events.json", &err);
    if (!err.empty()) {
        c.err = "campaign events: " + err;
        return c;
    }
    if (const Value *arr = events.find("events"))
        for (const auto &ev : arr->items())
            if (const Value *t = ev.find("type");
                t && t->asString() == "completed")
                c.workerShardSeconds.push_back(num(ev, "wall_seconds"));

    // The campaign and its shards as spans: the campaign's self time is
    // the coordinator's share no worker covers.
    Tracer &tr = Tracer::get();
    const int parent = tr.add(resume ? "dist.resume" : "dist.campaign",
                              c.spawn, c.exit, currentSpan(), op);
    for (const auto &s : c.shards) {
        if (s.assigned >= 0 && s.started >= 0)
            tr.add("dist.dispatch", s.assigned, s.started, parent, op);
        if (s.started >= 0 && s.completed >= 0)
            tr.add("dist.shard", s.started, s.completed, parent, op);
    }
    return c;
}

// ---- the workloads ----------------------------------------------------------

struct LoopStats
{
    std::vector<double> latency;     //!< wall seconds, one per op/request
    std::vector<double> cal;         //!< the kernel time next to each
    std::vector<std::uint64_t> ops;  //!< the op id of each sample
    std::uint64_t cells = 0;         //!< cells requested
    std::uint64_t cellHits = 0;      //!< of which answered from a cache
    double calibratedBusy = 0;       //!< calibrated seconds of traffic
    std::vector<double> kernelTimed; //!< every timed kernel pass
    std::vector<double> kernelFirst; //!< the untimed pass before each

    /** Run the calibration kernel, keep both passes. @return the timed
     *  pass. */
    double
    kernel()
    {
        double first = 0;
        kernelTimed.push_back(calibrationSeconds(&first));
        kernelFirst.push_back(first);
        return kernelTimed.back();
    }

    /** The raw wall median and the kernel's passes, for the # lines. */
    std::string
    rawNote(double unit, const char *unitName) const
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "raw wall median %.6g %s; kernel %.4g ms (untimed "
                      "first pass %.4g ms)",
                      median(latency) * unit, unitName,
                      median(kernelTimed) * 1e3, median(kernelFirst) * 1e3);
        return buf;
    }

    /** Calibrated latencies in @p unit seconds (1e3 = ms). */
    std::vector<double>
    calibratedLatency(double unit) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < latency.size(); ++i)
            out.push_back(calibrated(latency[i], cal[i]) * unit);
        return out;
    }
};

/**
 * One workload. setUp() builds the inputs from the seed and runs the
 * untimed first op; loop() runs the closed loop for a time budget;
 * tearDown() stops children and checks what could only be checked
 * afterwards; endToEnd() turns the samples into metrics.
 */
class Bench
{
  public:
    explicit Bench(const Context &ctx) : ctx_(ctx) {}
    virtual ~Bench() = default;
    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    virtual void setUp(Result &out) = 0;
    virtual LoopStats loop(double seconds, Result &out) = 0;
    virtual void tearDown(Result &) {}
    virtual void endToEnd(const LoopStats &loop, Result &out) = 0;

    /** The specs the layer tour probes, and the campaign it shards. */
    virtual std::vector<Job> tourJobs() const = 0;
    virtual Job campaignJob() const = 0;

  protected:
    const Context ctx_;
    std::uint64_t nextOp_ = 1;
};

void
addCommon(Result &out, double setup, std::size_t setupN)
{
    out.add("setup_s", "s", setup, setupN);
    double self = 0;
    double children = 0;
    const double peak = peakRssMiB(&self, &children);
    out.add("peak_rss_mb", "MiB", peak, 1,
            "benchmark " + std::to_string(self) + ", largest child " +
                std::to_string(children));
    const double okFrac =
        out.attempted
            ? static_cast<double>(out.attempted - out.failed) /
                  static_cast<double>(out.attempted)
            : 0.0;
    out.add("correct_frac", "ratio", okFrac, out.attempted,
            "1 - failed_frac");
}

// ---- sim-miss / sim-hit ----------------------------------------------

class SimBench : public Bench
{
  public:
    explicit SimBench(const Context &ctx) : Bench(ctx)
    {
        Rng rng(ctx.seed);
        // Scaled so one op of each workload takes ~40 ms on a 4-core
        // AVX2 host: a run holds ~300 ops, so even its p99 has a few
        // samples beyond it. lu and em contribute alike to a sim-miss op.
        if (ctx.workload == "sim-miss") {
            jobs_.push_back(makeJob({"lu"}, 0.03125 * rng.jitter(0.02)));
            jobs_.push_back(makeJob({"em"}, 0.0078125 * rng.jitter(0.02)));
        } else {
            jobs_.push_back(makeJob({"fm"}, 0.25 * rng.jitter(0.02)));
        }
    }

    /** One cold op: both tiers empty, each spec executed once.
     *  @return "" or why the op is wrong. */
    std::string
    op(std::uint64_t id, double *seconds, std::uint64_t *refs,
       bool reference)
    {
        std::vector<service::ExecuteResult> results(jobs_.size());
        std::vector<std::string> errs(jobs_.size());
        coldCache();
        const double t0 = nowSeconds();
        {
            SpanScope s("sim.op", id);
            for (std::size_t i = 0; i < jobs_.size(); ++i) {
                SpanScope e("service.executeSpec", id);
                errs[i] = service::executeSpec(jobs_[i].spec, kSimJobs,
                                               results[i]);
            }
        }
        *seconds = nowSeconds() - t0;
        *refs = 0;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (!errs[i].empty())
                return errs[i];
            const service::ExecuteResult &r = results[i];
            if (r.simulated != jobs_[i].cells)
                return "op was not cold (" + std::to_string(r.simulated) +
                       " simulated)";
            const std::uint64_t d = simDigest(r.report);
            if (reference) {
                digests_.push_back(d);
                hybrid_.collect(r.report);
            } else if (d != digests_[i]) {
                return "simulated subtrees differ from the first op's";
            }
            *refs += reportRefs(r.report);
        }
        return "";
    }

    void
    setUp(Result &out) override
    {
        coldCache();
        for (const Job &job : jobs_)
            if (std::string e = goldenPrefixCheck(job); !e.empty())
                out.problem(e);
        // setup_s: the first op of a fresh process, several times.
        for (std::size_t i = 0; i < kSetupRepeats; ++i) {
            Child probe;
            const double cal = calibrationSeconds();
            const double t0 = nowSeconds();
            std::string err = probe.spawn(
                {ctx_.self, "--probe", "--workload", ctx_.workload, "--seed",
                 std::to_string(ctx_.seed)},
                ctx_.tmp + "/probe.log", false);
            const int status = err.empty() ? probe.wait() : -1;
            if (!err.empty() || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0) {
                out.problem("set-up probe failed " + err);
                continue;
            }
            setup_.push_back(calibrated(nowSeconds() - t0, cal));
        }
        double secs = 0;
        std::uint64_t refs = 0;
        if (std::string e = op(0, &secs, &refs, true); !e.empty())
            out.problem("warm-up op: " + e);
    }

    LoopStats
    loop(double seconds, Result &out) override
    {
        LoopStats ls;
        const double start = nowSeconds();
        double calBefore = ls.kernel();
        // The window ends on attempts and time, never on successes alone,
        // so a run whose every op fails still ends and reports it.
        for (std::size_t attempts = 0;
             attempts < kMinOps || nowSeconds() - start < seconds;
             ++attempts) {
            double secs = 0;
            std::uint64_t refs = 0;
            ++out.attempted;
            const std::string e = op(nextOp_++, &secs, &refs, false);
            const double calAfter = ls.kernel();
            const double cal = 0.5 * (calBefore + calAfter);
            calBefore = calAfter;
            ls.cells += cellsPerOp();
            if (!e.empty()) {
                out.fail(e);
                continue;
            }
            ls.latency.push_back(secs);
            ls.cal.push_back(cal);
            ls.ops.push_back(nextOp_ - 1);
            ls.calibratedBusy += calibrated(secs, cal);
            nsPerRef_.push_back(calibrated(secs, cal) * 1e9 /
                                static_cast<double>(refs));
        }
        return ls;
    }

    void
    endToEnd(const LoopStats &ls, Result &out) override
    {
        if (ls.latency.empty()) {
            addCommon(out, median(setup_), setup_.size());
            return;
        }
        const std::vector<double> ms = ls.calibratedLatency(1e3);
        const Percentile p99 = percentile(ms, 99);
        out.add("sim_ns_per_ref", "ns", median(nsPerRef_), nsPerRef_.size(),
                "op wall / simulated refs");
        // The next three restate the op time (every workload reports
        // every end-to-end metric); they are not independent.
        out.add("request_ms_p50", "ms", median(ms), ms.size(),
                "request = one op; " + ls.rawNote(1e3, "ms"));
        out.add("request_ms_p99", "ms", p99.value, p99.samples,
                std::to_string(p99.beyond) + " samples beyond");
        out.add("requests_per_s", "1/s",
                static_cast<double>(ms.size()) / ls.calibratedBusy,
                ms.size(), "correct ops per second; restates the op time");
        out.add("campaign_s", "s", median(ms) / 1e3, ms.size(),
                "campaign = one op; equals request_ms_p50");
        addCommon(out, median(setup_), setup_.size());
        hybrid_.report(out);
    }

    std::vector<Job> tourJobs() const override { return jobs_; }

    Job
    campaignJob() const override
    {
        std::vector<std::string> apps;
        double scale = std::numeric_limits<double>::infinity();
        for (const Job &job : jobs_) {
            apps.push_back(job.spec.apps.front());
            scale = std::min(scale, job.spec.scale);
        }
        return makeJob(apps, scale, {}, true);
    }

    const std::vector<Job> &jobs() const { return jobs_; }

  private:
    std::size_t
    cellsPerOp() const
    {
        std::size_t n = 0;
        for (const Job &job : jobs_)
            n += job.cells;
        return n;
    }

    std::vector<Job> jobs_;
    std::vector<std::uint64_t> digests_;
    std::vector<double> setup_;
    std::vector<double> nsPerRef_;
    HybridPairs hybrid_;
};

// ---- serve-mix --------------------------------------------------------

class ServeBench : public Bench
{
  public:
    enum Class : std::uint8_t { kMem = 0, kDisk = 1, kMiss = 2 };

    /**
     * Request-class shares of the stream (BENCHMARK.json records them).
     * No log of served traffic exists, so they are chosen, not measured:
     * mostly repeats, some disk hits, some misses, as the workload is
     * defined. The miss and disk shares were tuned for a steady median.
     * The daemon publishes and reads its disk tier under the RunCache
     * lock, so a hit that arrives while the other client's miss or disk
     * hit holds it waits for that request's file I/O. At 7.5% each, those classes held a
     * client about two thirds of the time, ~20% of hits waited, and the
     * median sat near that cliff (spread up to 0.45 over seeds); at 3%
     * it does not.
     */
    static constexpr double kMemShare = 0.94;
    static constexpr double kDiskShare = 0.03;

    explicit ServeBench(const Context &ctx) : Bench(ctx)
    {
        Rng rng(ctx.seed);
        // Every spec gets its own scale, so no two share a cell: one
        // seeded factor per run, then steps far above the rounding.
        const double factor = rng.jitter(0.02);
        std::size_t serial = 0;
        auto uniqueScale = [&](double base) {
            return base * factor * (1.0 + 1e-4 * static_cast<double>(++serial));
        };
        // The repeat pool (seeded scales): answered once by the warm-up
        // op, then served from the daemon's memory tier. Chosen, like
        // the shares: one run spec per app and one all-apps sweep, so
        // single-run hits are ~85% of the stream.
        for (const std::string &app : kAllApps)
            jobs_.push_back(makeJob({app}, uniqueScale(0.003)));
        jobs_.push_back(makeJob(kAllApps, uniqueScale(0.001)));
        pool_ = jobs_.size();

        // A fixed-length stream with fixed contents: every class holds
        // its share, and the disk and miss specs cycle through the apps,
        // so every seed asks for the same work (a heavy em miss running
        // beside the other client's hits slows them). The seed only
        // orders the stream. A run that reaches its end ends its window
        // early.
        const std::size_t nApps = kAllApps.size();
        const auto nMem = static_cast<std::size_t>(
            std::lround(kMemShare * static_cast<double>(kStreamLength)));
        const auto nDisk = static_cast<std::size_t>(
            std::lround(kDiskShare * static_cast<double>(kStreamLength)));
        for (std::size_t i = 0; i < kStreamLength; ++i) {
            Req r;
            if (i < nMem) {
                r.cls = kMem;
                r.job = static_cast<std::uint32_t>(i % pool_);
            } else {
                const std::size_t k = i < nMem + nDisk ? i - nMem
                                                       : i - nMem - nDisk;
                r.cls = i < nMem + nDisk ? kDisk : kMiss;
                r.job = static_cast<std::uint32_t>(jobs_.size());
                const std::string &a = kAllApps[(k / 2) % nApps];
                if (r.cls == kDisk)
                    jobs_.push_back(
                        makeJob({kAllApps[k % nApps]}, uniqueScale(0.0005)));
                else if (k % 2 == 0)
                    jobs_.push_back(makeJob({a}, uniqueScale(0.0015)));
                else  // each app in 3 of every 10 three-app sweeps
                    jobs_.push_back(makeJob(
                        sortedApps({a, kAllApps[(k / 2 + 1) % nApps],
                                    kAllApps[(k / 2 + 3) % nApps]}),
                        uniqueScale(0.0005)));
            }
            stream_.push_back(r);
        }
        for (std::size_t i = stream_.size() - 1; i > 0; --i)
            std::swap(stream_[i], stream_[rng.below(i + 1)]);
    }

    void
    setUp(Result &out) override
    {
        cacheDir_ = ctx_.tmp + "/serve-cache";
        std::vector<const Job *> disk;
        for (const Req &r : stream_)
            if (r.cls == kDisk)
                disk.push_back(&jobs_[r.job]);
        publishToDisk(disk, cacheDir_);

        // setup_s: spawn -> first ping answered, several daemons.
        for (std::size_t i = 0; i < kSetupRepeats; ++i) {
            Daemon d;
            const double cal = calibrationSeconds();
            const std::string err =
                d.start(ctx_, "serve" + std::to_string(i), cacheDir_);
            if (!err.empty()) {
                out.problem(err);
                return;
            }
            setup_.push_back(calibrated(d.readySeconds, cal));
            if (i + 1 < kSetupRepeats)
                d.stop();
            else
                daemon_ = std::move(d);
        }

        // Warm-up op: every pool spec once (misses, untimed).
        service::ClientOptions opts;
        opts.retries = 0;
        opts.timeoutSeconds = 120;
        for (std::size_t j = 0; j < pool_; ++j) {
            Value resp;
            const std::string err = service::requestResponse(
                daemon_.sock, jobs_[j].request, resp, opts);
            if (!err.empty() || !resp.find("ok") || !resp.find("ok")->asBool())
                out.problem("warm-up request failed: " + err);
        }
    }

    LoopStats
    loop(double seconds, Result &out) override
    {
        const Value before = daemon_.stats();
        LoopStats ls;
        std::vector<std::vector<Rec>> perClient(kServeClients);
        // The window runs in slices; between slices the clients drain
        // and the calibration kernel runs alone, and each request is
        // calibrated by the kernel times on both sides of its slice.
        const double start = nowSeconds();
        double calBefore = ls.kernel();
        while (nowSeconds() - start < seconds &&
               next_.load() < stream_.size()) {
            const double sliceStart = nowSeconds();
            const double deadline = sliceStart + kSliceSeconds;
            std::vector<std::size_t> first;
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kServeClients; ++c) {
                first.push_back(perClient[c].size());
                clients.emplace_back([this, deadline, &perClient, c] {
                    client(deadline, perClient[c]);
                });
            }
            for (auto &t : clients)
                t.join();
            const double sliceWall = nowSeconds() - sliceStart;
            const double calAfter = ls.kernel();
            const double cal = 0.5 * (calBefore + calAfter);
            for (unsigned c = 0; c < kServeClients; ++c)
                for (std::size_t i = first[c]; i < perClient[c].size(); ++i)
                    perClient[c][i].cal = cal;
            ls.calibratedBusy += calibrated(sliceWall, cal);
            calBefore = calAfter;
        }
        const Value after = daemon_.stats();
        const double hits = num(after, "hits") - num(before, "hits");
        const double sims =
            num(after, "simulations") - num(before, "simulations");
        const double disk =
            num(after, "disk_hits") - num(before, "disk_hits");
        ls.cellHits = static_cast<std::uint64_t>(std::max(0.0, hits));
        ls.cells = static_cast<std::uint64_t>(std::max(0.0, hits + sims));
        // The response's cache counters are process-wide deltas, so two
        // concurrent clients blur them per request; the classes are
        // checked over the whole loop instead.
        double wantSims = 0;
        double wantDisk = 0;
        bool allOk = true;
        for (auto &recs : perClient) {
            for (Rec &r : recs) {
                ++out.attempted;
                allOk = allOk && r.ok;
                const double cells = static_cast<double>(jobs_[r.job].cells);
                wantSims += r.cls == kMiss ? cells : 0;
                wantDisk += r.cls == kDisk ? cells : 0;
                ls.latency.push_back(r.ok ? r.seconds
                                          : kFailedLatencyMs / 1e3);
                ls.cal.push_back(r.ok ? r.cal : kCalibrationRefSeconds);
                ls.ops.push_back(r.op);
                recs_.push_back(std::move(r));
            }
        }
        if (allOk && (sims != wantSims || disk != wantDisk))
            out.problem("the daemon simulated " + std::to_string(sims) +
                        " cells and read " + std::to_string(disk) +
                        " from disk; the stream's classes need " +
                        std::to_string(wantSims) + " and " +
                        std::to_string(wantDisk));
        return ls;
    }

    void
    tearDown(Result &out) override
    {
        daemon_.stop();
        // Each served report must match an in-process execution of the
        // same spec.
        coldCache();
        std::vector<std::uint64_t> expected(jobs_.size(), 0);
        auto expect = [&](std::uint32_t j) {
            if (expected[j] == 0) {
                expected[j] =
                    simDigest(executeJob(jobs_[j], kSetupJobs,
                                         "service.executeSpec", 0)
                                  .report);
                coldCache();  // keep the in-process tier from growing
            }
            return expected[j];
        };
        for (std::size_t j = 0; j < pool_; ++j)
            hybrid_.collect(
                executeJob(jobs_[j], kSetupJobs, "service.executeSpec", 0)
                    .report);
        for (Rec &r : recs_) {
            if (!r.ok) {
                out.fail(r.err);
                continue;
            }
            if (r.digest != expect(r.job)) {
                r.ok = false;
                out.fail("served report differs from in-process execution");
            }
        }
        coldCache();
    }

    void
    endToEnd(const LoopStats &ls, Result &out) override
    {
        std::vector<double> ms;
        std::vector<double> sweepSeconds;
        double missSeconds = 0;
        double missRefs = 0;
        std::size_t ok = 0;
        for (const Rec &r : recs_) {
            const double s = calibrated(r.seconds, r.cal);
            ms.push_back(r.ok ? s * 1e3 : kFailedLatencyMs);
            if (!r.ok)
                continue;
            ++ok;
            if (r.cls == kMiss) {
                missSeconds += s;
                missRefs += static_cast<double>(r.refs);
            }
            if (r.cls == kMiss && jobs_[r.job].sweep)
                sweepSeconds.push_back(s);
        }
        const Percentile p99 = percentile(ms, 99);
        out.add("sim_ns_per_ref", "ns", missSeconds * 1e9 / missRefs,
                static_cast<std::size_t>(missRefs),
                "fresh-spec requests: summed latency / summed refs");
        out.add("request_ms_p50", "ms", median(ms), ms.size(),
                ls.rawNote(1e3, "ms"));
        out.add("request_ms_p99", "ms", p99.value, p99.samples,
                std::to_string(p99.beyond) + " samples beyond");
        out.add("requests_per_s", "1/s",
                static_cast<double>(ok) / ls.calibratedBusy, ok,
                std::to_string(kServeClients) + " clients");
        out.add("campaign_s", "s", median(sweepSeconds), sweepSeconds.size(),
                "campaign = a fresh sweep request");
        addCommon(out, median(setup_), setup_.size());
        hybrid_.report(out);
    }

    std::vector<Job> tourJobs() const override { return {jobs_[pool_ - 1]}; }
    Job campaignJob() const override { return jobs_[pool_ - 1]; }

  private:
    /** Length of one slice of the serve window. */
    static constexpr double kSliceSeconds = 0.25;

    /** Requests in the stream: ~1.8x what two clients complete in 15 s
     *  on a 4-core host. */
    static constexpr std::size_t kStreamLength = 30000;

    struct Req
    {
        Class cls = kMem;
        std::uint32_t job = 0;
    };

    struct Rec
    {
        std::uint64_t op = 0;  //!< stream index + 1
        double seconds = 0;
        double cal = kCalibrationRefSeconds;  //!< its slice's kernel time
        Class cls = kMem;
        bool ok = false;
        std::uint32_t job = 0;
        std::uint64_t digest = 0;
        std::uint64_t refs = 0;
        std::string err;
    };

    /** One closed-loop client: the next request only after the last
     *  answer. No retries: after a daemon crash every later request
     *  fails. */
    void
    client(double deadline, std::vector<Rec> &recs)
    {
        service::ClientOptions opts;
        opts.retries = 0;
        opts.timeoutSeconds = 60;
        while (nowSeconds() < deadline) {
            const std::size_t i = next_.fetch_add(1);
            if (i >= stream_.size())
                return;
            const Req &req = stream_[i];
            const Job &job = jobs_[req.job];
            Rec rec;
            rec.op = i + 1;
            rec.cls = req.cls;
            rec.job = req.job;
            Value resp;
            const double t0 = nowSeconds();
            std::string err;
            {
                static const char *kNames[] = {"serve.mem_hit",
                                               "serve.disk_hit",
                                               "serve.miss"};
                SpanScope s(kNames[req.cls], rec.op);
                err = service::requestResponse(daemon_.sock, job.request,
                                               resp, opts);
            }
            rec.seconds = nowSeconds() - t0;
            rec.err = checkResponse(err, resp);
            rec.ok = rec.err.empty();
            if (rec.ok) {
                const Value &report = *resp.find("report");
                rec.digest = simDigest(report);
                rec.refs = reportRefs(report);
            }
            recs.push_back(std::move(rec));
        }
    }

    static std::string
    checkResponse(const std::string &transport, const Value &resp)
    {
        if (!transport.empty())
            return "transport: " + transport;
        const Value *ok = resp.find("ok");
        if (!ok || !ok->asBool()) {
            const Value *e = resp.find("error");
            return "refused: " + (e ? e->asString() : std::string("?"));
        }
        return resp.find("report") ? "" : "response without a report";
    }

    std::vector<Job> jobs_;
    std::size_t pool_ = 0;
    std::vector<Req> stream_;
    std::atomic<std::size_t> next_{0};
    std::vector<Rec> recs_;
    std::string cacheDir_;
    Daemon daemon_;
    std::vector<double> setup_;
    HybridPairs hybrid_;
};

// ---- dist-campaign ------------------------------------------------------

class DistBench : public Bench
{
  public:
    explicit DistBench(const Context &ctx) : Bench(ctx)
    {
        Rng rng(ctx.seed);
        // Figure 4's campaign at reduced scale: ~0.5 s per op with two
        // workers on a 4-core host.
        job_ = makeJob(kAllApps, 0.05 * rng.jitter(0.02), kFigure4Filters,
                       true);
    }

    void
    setUp(Result &out) override
    {
        specPath_ = ctx_.tmp + "/campaign.spec.json";
        if (std::string e = jetty::json::writeFileErr(specPath_,
                                                      job_.spec.toJson());
            !e.empty()) {
            out.problem(e);
            return;
        }
        coldCache();
        const service::ExecuteResult ref =
            executeJob(job_, kInProcJobs, "service.executeSpec", 0);
        digest_ = simDigest(ref.report);
        hybrid_.collect(ref.report);
        const Campaign warm = runCampaign(ctx_, specPath_,
                                          ctx_.tmp + "/campaign", false, 0);
        if (std::string e = check(warm); !e.empty())
            out.problem("warm-up campaign: " + e);
    }

    LoopStats
    loop(double seconds, Result &out) override
    {
        LoopStats ls;
        const double start = nowSeconds();
        double calBefore = ls.kernel();
        for (std::size_t attempts = 0;
             attempts < kMinOps || nowSeconds() - start < seconds;
             ++attempts) {
            ++out.attempted;
            Campaign c = runCampaign(ctx_, specPath_, ctx_.tmp + "/campaign",
                                     false, nextOp_++);
            const double calAfter = ls.kernel();
            const double cal = 0.5 * (calBefore + calAfter);
            calBefore = calAfter;
            ls.cells += job_.cells;
            ls.cellHits += c.diskHits + c.memHits;
            if (std::string e = check(c); !e.empty()) {
                out.fail(e);
                continue;
            }
            ls.latency.push_back(c.wall());
            ls.cal.push_back(cal);
            ls.ops.push_back(nextOp_ - 1);
            ls.calibratedBusy += calibrated(c.wall(), cal);
            campaigns_.push_back(std::move(c));
            cal_.push_back(cal);
        }
        removeTree(ctx_.tmp + "/campaign");
        return ls;
    }

    void
    endToEnd(const LoopStats &ls, Result &out) override
    {
        if (campaigns_.empty()) {
            addCommon(out, std::numeric_limits<double>::quiet_NaN(), 0);
            return;
        }
        std::vector<double> nsPerRef;
        std::vector<double> shardMs;
        std::vector<double> firstStarted;
        double shards = 0;
        for (std::size_t i = 0; i < campaigns_.size(); ++i) {
            const Campaign &c = campaigns_[i];
            const double cal = cal_[i];
            nsPerRef.push_back(calibrated(c.wall(), cal) * 1e9 /
                               static_cast<double>(reportRefs(c.report)));
            firstStarted.push_back(calibrated(c.firstStarted - c.spawn, cal));
            for (const auto &s : c.shards)
                shardMs.push_back(calibrated(s.completed - s.assigned, cal) *
                                  1e3);
            shards += static_cast<double>(c.shards.size());
        }
        const Percentile p99 = percentile(shardMs, 99);
        out.add("sim_ns_per_ref", "ns", median(nsPerRef), nsPerRef.size(),
                "campaign wall / simulated refs");
        out.add("request_ms_p50", "ms", median(shardMs), shardMs.size(),
                "request = one shard, assigned -> completed");
        out.add("request_ms_p99", "ms", p99.value, p99.samples,
                std::to_string(p99.beyond) + " samples beyond");
        out.add("requests_per_s", "1/s", shards / ls.calibratedBusy,
                static_cast<std::size_t>(shards),
                "shards completed per campaign second");
        out.add("campaign_s", "s", median(ls.calibratedLatency(1)),
                ls.latency.size(), ls.rawNote(1, "s"));
        addCommon(out, median(firstStarted), firstStarted.size());
        hybrid_.report(out);
    }

    std::vector<Job> tourJobs() const override { return {job_}; }
    Job campaignJob() const override { return job_; }

  private:
    std::string
    check(const Campaign &c) const
    {
        if (!c.err.empty())
            return c.err;
        if (c.shards.size() != job_.cells)
            return "campaign ran " + std::to_string(c.shards.size()) +
                   " shards, expected " + std::to_string(job_.cells);
        for (const auto &s : c.shards)
            if (s.assigned < 0 || s.started < 0 || s.completed < 0)
                return "a shard has no assigned/started/completed event";
        if (c.firstStarted < 0)
            return "no shard started";
        if (simDigest(c.report) != digest_)
            return "campaign report differs from the in-process sweep";
        return "";
    }

    Job job_;
    std::string specPath_;
    std::uint64_t digest_ = 0;
    std::vector<Campaign> campaigns_;
    std::vector<double> cal_;  //!< kernel time after each campaign
    HybridPairs hybrid_;
};

// ---- the traced layer tour --------------------------------------------

/** Aggregate arch counters over every run of @p report. */
struct ArchTotals
{
    double accesses = 0, l1Hits = 0, l2Accesses = 0, l2Hits = 0, wb = 0,
           txns = 0, probes = 0, snoopMisses = 0;

    void
    add(const Value &report)
    {
        forEachRun(report, [&](const Value &run) {
            const Value &a = *run.find("arch");
            accesses += num(a, "accesses");
            l1Hits += num(a, "l1_hits");
            l2Accesses += num(a, "l2_local_accesses");
            l2Hits += num(a, "l2_local_hits");
            wb += num(a, "wb_insertions");
            txns += num(a, "snoop_transactions");
            probes += num(a, "snoop_tag_probes");
            snoopMisses += num(a, "snoop_misses");
        });
    }
};

double
spanMedianMs(const std::string &name)
{
    return median(Tracer::get().durations(name)) * 1e3;
}

/** trace / sim / core: synthesize, capture, and replay each cell. */
void
tourSimulator(const std::vector<Job> &jobs, std::uint64_t op, Result &out)
{
    std::uint64_t drained = 0;
    std::uint64_t simulated = 0;
    for (const Job &job : jobs) {
        const sim::SmpConfig cfg = job.spec.smpConfig();
        sim::SmpConfig bare = cfg;
        bare.filterSpecs.clear();
        for (const auto &req : job.spec.expand()) {
            Streams kept;
            drained += drainStreams(req, cfg.nprocs,
                                    std::numeric_limits<std::size_t>::max(),
                                    kCapturePerProc, &kept, op);
            for (const auto &s : kept)
                simulated += s.size();
            for (int pass = 0; pass < 2; ++pass) {
                const bool filtered = pass == 0;
                auto sources = vectorSources(kept);
                std::unique_ptr<sim::SmpSystem> sys;
                {
                    SpanScope s(filtered ? "sim.construct"
                                         : "sim.construct.nofilter",
                                op);
                    sys = std::make_unique<sim::SmpSystem>(filtered ? cfg
                                                                    : bare);
                    sys->attachSources(std::move(sources));
                }
                SpanScope s(filtered ? "sim.run" : "sim.run.nofilter", op);
                sys->run();
            }
        }
    }
    Tracer &tr = Tracer::get();
    const double refs = static_cast<double>(simulated);
    const double run = tr.total("sim.run") * 1e9 / refs;
    const double bare = tr.total("sim.run.nofilter") * 1e9 / refs;
    out.add("trace.synth_ns_per_ref", "ns",
            tr.total("trace.nextBatch") * 1e9 / static_cast<double>(drained),
            static_cast<std::size_t>(drained), "full streams");
    out.add("sim.run_ns_per_ref", "ns", run,
            static_cast<std::size_t>(simulated),
            "captured prefix, paper trio");
    out.add("sim.nofilter_ns_per_ref", "ns", bare,
            static_cast<std::size_t>(simulated), "captured prefix, no filter");
    out.add("sim.construct_ms", "ms", spanMedianMs("sim.construct"),
            tr.durations("sim.construct").size());
    out.add("core.filter_ns_per_ref", "ns", run - bare,
            static_cast<std::size_t>(simulated), "run - nofilter");
}

/** mem / coherence / sim counts, api, experiments: in-process. */
void
tourInProcess(const Context &ctx, const std::vector<Job> &jobs,
              std::uint64_t op, Result &out)
{
    // Exact counts from cold reports of every tour spec.
    coldCache();
    ArchTotals arch;
    double busiest = 0;
    std::vector<service::ExecuteResult> cold;
    for (const Job &job : jobs) {
        cold.push_back(executeJob(job, kInProcJobs, "service.executeSpec", op));
        arch.add(cold.back().report);
        for (const auto &run : cold.back().runs)
            busiest = std::max(
                busiest, sim::evaluateBusContention(run.stats).busiestUtilization);
    }
    out.add("mem.l1_hit_frac", "ratio", arch.l1Hits / arch.accesses, 1);
    out.add("mem.l2_local_hit_frac", "ratio", arch.l2Hits / arch.l2Accesses,
            1);
    out.add("mem.wb_insertions_per_kref", "1/kref",
            arch.wb * 1e3 / arch.accesses, 1);
    out.add("coherence.bus_txn_per_kref", "1/kref",
            arch.txns * 1e3 / arch.accesses, 1);
    out.add("coherence.snoop_probes_per_kref", "1/kref",
            arch.probes * 1e3 / arch.accesses, 1);
    out.add("coherence.snoop_miss_frac", "ratio",
            arch.snoopMisses / arch.probes, 1);
    out.add("sim.busiest_bus_util", "ratio", busiest, 1,
            "M/D/1 rho of the busiest bus");

    // api: report build + emission, and spec parse/resolve/key.
    const service::ExecuteResult &r0 = cold.front();
    for (int i = 0; i < 10; ++i) {
        SpanScope s("api.report", op);
        Value report;
        {
            SpanScope b("service.buildReport", op);
            report = service::buildReport(r0.spec, r0.kind, r0.filterNames,
                                          r0.requests, r0.runs);
        }
        SpanScope e("api.emit", op);
        const std::string text = report.dump();
        if (text.empty())
            out.problem("empty report emission");
    }
    out.add("api.report_ms", "ms", spanMedianMs("api.report"), 10);
    std::size_t specN = 0;
    for (const Job &job : jobs) {
        const std::string text = job.spec.emit();
        for (int i = 0; i < 50; ++i, ++specN) {
            SpanScope s("api.spec", op);
            std::string err;
            api::ExperimentSpec spec = api::ExperimentSpec::parse(text, &err);
            if (err.empty())
                err = service::resolveSpec(spec, job.kind);
            for (const auto &req : spec.expand())
                if (api::runCacheKey(req, spec.scale).empty())
                    err = "empty cache key";
            if (!err.empty())
                out.problem("spec round trip: " + err);
        }
    }
    out.add("api.spec_us", "us", spanMedianMs("api.spec") * 1e3, specN);

    // experiments: runMany on the memory tier and on the disk tier.
    auto &rc = experiments::RunCache::instance();
    const auto requests = jobs.front().spec.expand();
    rc.setDiskRoot(ctx.tmp + "/tour-experiments");
    rc.clear();
    {
        SpanScope s("experiments.runMany.cold", op);
        experiments::runMany(requests, kInProcJobs);
    }
    for (int i = 0; i < 20; ++i) {
        SpanScope s("experiments.runMany.mem_hit", op);
        experiments::runMany(requests, kInProcJobs);
    }
    for (int i = 0; i < 5; ++i) {
        rc.clear();
        SpanScope s("experiments.runMany.disk_hit", op);
        experiments::runMany(requests, kInProcJobs);
        if (rc.diskHits() != requests.size())
            out.problem("tour disk-tier probe missed the disk tier");
    }
    coldCache();
    out.add("experiments.mem_hit_us", "us",
            spanMedianMs("experiments.runMany.mem_hit") * 1e3, 20);
    out.add("experiments.disk_hit_ms", "ms",
            spanMedianMs("experiments.runMany.disk_hit"), 5);
}

/** service: one daemon, requests of each class for the first tour
 *  spec, and the in-process cost of the same memory hit. */
void
tourService(const Context &ctx, const Job &job, std::uint64_t op,
            Result &out)
{
    const std::string cacheDir = ctx.tmp + "/tour-serve-cache";
    std::vector<Job> disk;
    std::vector<Job> miss;
    for (int k = 1; k <= 3; ++k) {
        disk.push_back(rescaled(job, 1.0 + 0.001 * k));
        miss.push_back(rescaled(job, 1.0 + 0.01 * k));
    }
    std::vector<const Job *> publish;
    for (const Job &j : disk)
        publish.push_back(&j);
    publishToDisk(publish, cacheDir);

    Daemon d;
    if (std::string e = d.start(ctx, "tour", cacheDir); !e.empty()) {
        out.problem(e);
        return;
    }
    service::ClientOptions opts;
    opts.retries = 0;
    opts.timeoutSeconds = 120;
    auto request = [&](const Job &j, const char *span, const char *field) {
        Value resp;
        std::string err;
        {
            SpanScope s(span, op);
            err = service::requestResponse(d.sock, j.request, resp, opts);
        }
        if (!err.empty() || num(resp, field) != static_cast<double>(j.cells))
            out.problem(std::string("tour ") + span + " request: " + err);
    };
    for (const Job &j : disk)
        request(j, "service.disk_hit", "disk_hits");
    for (int i = 0; i < 20; ++i)
        request(disk.front(), "service.mem_hit", "mem_hits");
    for (const Job &j : miss)
        request(j, "service.miss", "simulated");
    d.stop();

    // The same memory hit in-process: the rest of a served hit is wire.
    coldCache();
    executeJob(disk.front(), kServeJobs, "service.executeSpec", op);
    for (int i = 0; i < 20; ++i)
        executeJob(disk.front(), kServeJobs, "service.executeSpec.mem_hit",
                   op);
    coldCache();
    out.add("service.mem_hit_ms_p50", "ms", spanMedianMs("service.mem_hit"),
            20);
    out.add("service.disk_hit_ms_p50", "ms", spanMedianMs("service.disk_hit"),
            disk.size());
    out.add("service.miss_ms_p50", "ms", spanMedianMs("service.miss"),
            miss.size());
    out.add("service.wire_ms", "ms",
            spanMedianMs("service.mem_hit") -
                spanMedianMs("service.executeSpec.mem_hit"),
            20, "served mem hit - in-process mem hit");
}

/** dist: one campaign from its event stream, a resume over its ledger,
 *  and the in-process sweep of the same spec. */
void
tourDist(const Context &ctx, const Job &job, std::uint64_t op, Result &out)
{
    const std::string specPath = ctx.tmp + "/tour-campaign.spec.json";
    if (std::string e = jetty::json::writeFileErr(specPath, job.spec.toJson());
        !e.empty()) {
        out.problem(e);
        return;
    }
    const std::string dir = ctx.tmp + "/tour-campaign";
    const Campaign c = runCampaign(ctx, specPath, dir, false, op);
    const Campaign resumed = runCampaign(ctx, specPath, dir, true, op);
    if (!c.err.empty() || !resumed.err.empty() ||
        c.firstAssigned < 0) {
        out.problem("tour campaign: " + c.err + resumed.err);
        return;
    }
    coldCache();
    double inProc = 0;
    executeJob(job, kInProcJobs, "service.executeSpec.sweep", op, &inProc);

    std::vector<double> dispatch;
    double busy = 0;
    for (const auto &s : c.shards) {
        dispatch.push_back((s.started - s.assigned) * 1e3);
        busy += s.completed - s.started;
    }
    const Percentile shardMax = percentile(c.workerShardSeconds, 100);
    out.add("dist.spawn_ms", "ms", (c.firstAssigned - c.spawn) * 1e3, 1,
            "process spawn -> first shard assigned");
    out.add("dist.dispatch_ms_p50", "ms", median(dispatch), dispatch.size());
    out.add("dist.shard_s_p50", "s", median(c.workerShardSeconds),
            c.workerShardSeconds.size(), "worker-reported wall");
    out.add("dist.shard_s_max", "s", shardMax.value, shardMax.samples);
    out.add("dist.worker_idle_frac", "ratio",
            1.0 - busy / (kDistWorkers * c.wall()), c.shards.size());
    out.add("dist.resume_ms", "ms", resumed.wall() * 1e3, 1);
    out.add("dist.overhead_frac", "ratio", c.wall() / inProc - 1.0, 1,
            "vs in-process sweep at " + std::to_string(kInProcJobs) +
                " jobs");
}

std::unique_ptr<Bench>
makeBench(const Context &ctx)
{
    if (ctx.workload == "sim-miss" || ctx.workload == "sim-hit")
        return std::make_unique<SimBench>(ctx);
    if (ctx.workload == "serve-mix")
        return std::make_unique<ServeBench>(ctx);
    return std::make_unique<DistBench>(ctx);
}

void
runTraced(const Context &ctx, Bench &bench, Result &out)
{
    // Odd ops traced, even ops not: the gap between their medians is the
    // tracing overhead. End-to-end metrics never come from here.
    Tracer &tracer = Tracer::get();
    tracer.enable(true);
    tracer.sampleOddOps(true);
    const LoopStats ls = bench.loop(ctx.seconds, out);
    tracer.sampleOddOps(false);
    bench.tearDown(out);

    Result layers;
    const std::vector<Job> jobs = bench.tourJobs();
    {
        SpanScope s("tour", 0);
        tourSimulator(jobs, 0, layers);
        tourInProcess(ctx, jobs, 0, layers);
        tourService(ctx, jobs.front(), 0, layers);
        tourDist(ctx, bench.campaignJob(), 0, layers);
    }
    std::vector<double> traced;
    std::vector<double> plain;
    for (std::size_t i = 0; i < ls.latency.size(); ++i)
        (ls.ops[i] % 2 ? traced : plain).push_back(ls.latency[i]);
    layers.add("experiments.hit_frac", "ratio",
               static_cast<double>(ls.cellHits) /
                   static_cast<double>(ls.cells),
               ls.cells,
               "cells answered by a cache; 0 on the cold workloads");
    layers.add("bench.trace_overhead_frac", "ratio",
               median(traced) / median(plain) - 1.0, ls.latency.size(),
               "traced (odd) / untraced (even) op median - 1");
    // What the end-to-end timings are calibrated from: the raw wall
    // median and the kernel time (calibrated = raw x 8 ms / kernel).
    layers.add("bench.raw_op_ms_p50", "ms", median(plain) * 1e3,
               plain.size(), "untraced (even) ops, wall clock");
    layers.add("bench.calibration_ms_p50", "ms",
               median(ls.kernelTimed) * 1e3, ls.kernelTimed.size(),
               "timed kernel pass; untimed first pass " +
                   std::to_string(median(ls.kernelFirst) * 1e3) + " ms");
    for (auto &m : layers.metrics)
        out.metrics.push_back(std::move(m));
    for (auto &p : layers.problems)
        out.problem(p);
    if (std::string e = tracer.writeFile(ctx.spansOut); !e.empty())
        out.problem(e);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sim-miss", "sim-hit",
                                                   "serve-mix",
                                                   "dist-campaign"};
    return names;
}

void
runWorkload(const Context &ctx, Result &out)
{
    try {
        std::unique_ptr<Bench> bench = makeBench(ctx);
        bench->setUp(out);
        if (!out.problems.empty()) {
            // The warm-up op (or the set-up check) went wrong: report it
            // as one failed op, not as a run that could not be measured.
            ++out.attempted;
            ++out.failed;
            out.add("correct_frac", "ratio", 0.0, 1, "set-up failed");
            return;
        }
        syncFilesystem(ctx.tmp);  // set-up's writes stay out of the window
        if (ctx.trace) {
            runTraced(ctx, *bench, out);
            return;
        }
        const LoopStats ls = bench->loop(ctx.seconds, out);
        bench->tearDown(out);
        bench->endToEnd(ls, out);
    } catch (const std::exception &e) {
        out.problem(e.what());
    }
}

int
probeFirstOp(const Context &ctx)
{
    try {
        SimBench bench(ctx);
        coldCache();
        for (const Job &job : bench.jobs()) {
            service::ExecuteResult res;
            if (!service::executeSpec(job.spec, kSimJobs, res).empty())
                return 1;
        }
        return 0;
    } catch (const std::exception &) {
        return 1;
    }
}

} // namespace perfbench
