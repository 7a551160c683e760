/**
 * @file
 * Harness plumbing shared by every perfbench workload: order
 * statistics, the in-memory span tracer, child-process hygiene, the
 * host/build fingerprint, and the simulated-subtree digest the
 * correctness gate compares.
 *
 * Nothing here is part of libjetty. The benchmark only calls the
 * library's public entry points and records spans around those calls.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hh"

namespace perfbench
{

namespace json = jetty::json;

/** Seconds on the steady clock (an arbitrary but fixed epoch). */
double nowSeconds();

// ---- order statistics -------------------------------------------------

/** Median (mean of the two middle values for an even count); NaN when
 *  @p v is empty. */
double median(std::vector<double> v);

/** A nearest-rank percentile and how many samples lie strictly beyond
 *  its rank, so a reader can tell a p99 of 1000 samples (10 beyond)
 *  from one of 20 (none beyond). */
struct Percentile
{
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/** Nearest-rank percentile @p p (0 < p <= 100) of @p v: the sample at
 *  rank ceil(p/100 * n). NaN value when @p v is empty. */
Percentile percentile(std::vector<double> v, double p);

/** Sum(x * w) / Sum(w) over (x, w) pairs; NaN when the weights sum to
 *  zero. The aggregation of per-app coverage and energy figures. */
double weightedMean(const std::vector<std::pair<double, double>> &xw);

// ---- host-speed calibration --------------------------------------------

/**
 * Wall time of a fixed, benchmark-owned kernel: random read-modify-write
 * over a 2 MiB table plus integer arithmetic, ~8 ms on an idle 4-core
 * AVX2 Xeon. On a shared host the speed of every core drifts by tens of
 * percent within seconds; the benchmark runs this kernel between ops
 * (never concurrently with them) and reports each timing as it would
 * have read at kCalibrationRefSeconds, which cancels most of that drift.
 *
 * The kernel runs twice and only the second pass is timed: the first
 * refills the caches with its table, so the timed pass reads the same
 * cache state whatever the op before it evicted. @p firstPass, when
 * given, receives the untimed pass's wall time, so a reader can see how
 * much the op's footprint would have moved a single pass.
 */
double calibrationSeconds(double *firstPass = nullptr);

/** The kernel time calibrated timings are expressed at. */
constexpr double kCalibrationRefSeconds = 0.008;

/** @p seconds, measured next to a kernel run of @p cal seconds, at the
 *  reference host speed. */
inline double
calibrated(double seconds, double cal)
{
    return seconds * kCalibrationRefSeconds / cal;
}

// ---- spans --------------------------------------------------------------

/** One recorded call: name, [start, end] on the steady clock, the
 *  enclosing span (-1 for a root), and the op it belongs to. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::uint64_t op = 0;
};

/** Self time of every span in @p spans: its duration minus the part of
 *  its interval covered by the union of its children's intervals. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Process-wide span recorder. Off by default: a disabled tracer records
 * nothing and SpanScope costs one branch. Spans stay in memory until the
 * run ends and writeFile() dumps them. Thread-safe; the enclosing span
 * is tracked per thread.
 */
class Tracer
{
  public:
    static Tracer &get();

    void enable(bool on) { enabled_ = on; }

    /** When on, only odd-numbered ops record spans, so one loop yields
     *  traced and untraced samples of the same traffic (the even ops
     *  are the baseline of the tracing overhead). Op 0 — set-up and the
     *  layer tour — is always traced while enabled. */
    void sampleOddOps(bool on) { oddOnly_ = on; }

    /** Whether spans of @p op are recorded. */
    bool records(std::uint64_t op) const
    {
        return enabled_ && (!oddOnly_ || op == 0 || op % 2 == 1);
    }

    /** Open a span under the calling thread's current span. @return its
     *  id, or -1 when @p op is not recorded. */
    int begin(const std::string &name, std::uint64_t op);
    void end(int id);

    /** Record a finished span (e.g. derived from a child process's
     *  event stream). @return its id, or -1 when disabled. */
    int add(const std::string &name, double start, double end, int parent,
            std::uint64_t op);

    std::vector<Span> spans() const;

    /** Summed duration / every duration of the spans named @p name. */
    double total(const std::string &name) const;
    std::vector<double> durations(const std::string &name) const;

    /** Write every span plus per-name self time to @p path. */
    std::string writeFile(const std::string &path) const;

  private:
    Tracer() = default;
    bool enabled_ = false;
    bool oddOnly_ = false;
};

/** RAII span around one call; nests under the thread's open span. */
class SpanScope
{
  public:
    explicit SpanScope(const std::string &name, std::uint64_t op = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id_;
    int prev_;
};

/** The calling thread's innermost open span (-1 if none). */
int currentSpan();

// ---- child processes ----------------------------------------------------

/**
 * A fork+exec'd child. The destructor SIGKILLs and reaps a child that is
 * still running, every live pid is also killed by an atexit hook and by
 * SIGINT/SIGTERM/SIGHUP handlers, and the child itself asks the kernel
 * for SIGKILL should the benchmark die first — so no exit path leaves a
 * daemon or worker behind.
 */
class Child
{
  public:
    Child() = default;
    ~Child();
    Child(Child &&other) noexcept;
    Child &operator=(Child &&other) noexcept;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /**
     * Exec @p argv[0] with @p argv. stdout goes to a pipe readable via
     * stdoutFd() when @p pipeStdout, else to @p logPath; stderr always
     * goes to @p logPath. @return "" on success.
     */
    std::string spawn(const std::vector<std::string> &argv,
                      const std::string &logPath, bool pipeStdout);

    int stdoutFd() const { return outFd_; }
    bool running() const { return pid_ > 0; }

    /** Block until the child exits. @return its wait status. */
    int wait();

    /** Wait at most @p seconds; SIGKILL after that. @return the wait
     *  status, or -1 when it had to be killed. */
    int waitOrKill(double seconds);

    /** SIGKILL and reap (no-op when not running). */
    void kill();

  private:
    void release();
    pid_t pid_ = -1;
    int outFd_ = -1;
};

/** Install the SIGINT/SIGTERM/SIGHUP and atexit child reapers. */
void installChildReaper();

/** Peak resident set, MiB, of this process (@p self) and of the largest
 *  reaped descendant (@p children). @return the larger. */
double peakRssMiB(double *self = nullptr, double *children = nullptr);

// ---- files ----------------------------------------------------------------

/**
 * Write back everything dirty on the filesystem holding @p path. The
 * serve and dist workloads publish and later delete thousands of small
 * fsync'd files; without this, their write-back spills into the next
 * window (of this run or the next one) and every fsync there waits for
 * it, so back-to-back runs alternate fast and slow.
 */
void syncFilesystem(const std::string &path);

/** mkdir -p. @return "" on success. */
std::string makeDirs(const std::string &path);
void removeTree(const std::string &path);

// ---- fingerprint ------------------------------------------------------

/** Host and build identity stamped on every result. */
json::Value fingerprint();

/** "" when this binary may record numbers; else why not (a Debug or
 *  sanitizer build). */
std::string refuseBuild();

// ---- correctness gate -------------------------------------------------

/**
 * Digest of the simulated subtrees of a report: every "arch", "per_bus"
 * and "filters" value, in document order, never "timing" (wall clock).
 * Two reports of the same simulation must digest equally.
 */
std::uint64_t simDigest(const json::Value &report);

// ---- results ------------------------------------------------------------

/** What one benchmark run prints. */
struct Result
{
    struct Metric
    {
        std::string name;
        std::string unit;
        double value = 0;
        std::size_t samples = 0;
        std::string note;
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value, std::size_t samples,
             const std::string &note = "");

    /** Record a failed op and why (the first few reasons are kept). */
    void fail(const std::string &why);

    /** A set-up or harness failure: the run as a whole is wrong. */
    void problem(const std::string &why);

    bool correct() const { return problems.empty() && failed == 0; }
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
