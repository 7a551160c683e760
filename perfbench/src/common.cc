#include "common.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "util/simd.hh"

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- order statistics -------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile
percentile(std::vector<double> v, double p)
{
    Percentile out;
    out.samples = v.size();
    if (v.empty()) {
        out.value = std::numeric_limits<double>::quiet_NaN();
        return out;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    out.value = v[idx];
    out.beyond = v.size() - idx - 1;
    return out;
}

double
weightedMean(const std::vector<std::pair<double, double>> &xw)
{
    double num = 0;
    double den = 0;
    for (const auto &[x, w] : xw) {
        num += x * w;
        den += w;
    }
    return den > 0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

// ---- host-speed calibration --------------------------------------------

namespace
{

/** One pass of the kernel. @return its wall time. */
double
kernelPass(std::vector<std::uint32_t> &table)
{
    constexpr std::uint32_t kMask = (1u << 19) - 1;  // 2 MiB of uint32
    std::uint32_t x = 1;
    const double t0 = nowSeconds();
    for (std::uint32_t i = 0; i <= kMask; ++i) {
        x = table[x & kMask] + i * 2654435761u;
        table[(x >> 7) & kMask] ^= x;
    }
    const double t = nowSeconds() - t0;
    // Keep the loop observable so it cannot be optimised away.
    table[0] ^= x & 1;
    return t;
}

} // namespace

double
calibrationSeconds(double *firstPass)
{
    static std::vector<std::uint32_t> table(1u << 19, 1);
    // The first pass refills the caches with the table, whatever the op
    // before it left there; only the second pass is timed.
    const double first = kernelPass(table);
    if (firstPass)
        *firstPass = first;
    return kernelPass(table);
}

// ---- spans --------------------------------------------------------------

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent's.
        double covered = 0;
        double curStart = 0;
        double curEnd = -std::numeric_limits<double>::infinity();
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > curEnd) {
                if (curEnd > curStart)
                    covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
            } else {
                curEnd = std::max(curEnd, b);
            }
        }
        if (curEnd > curStart)
            covered += curEnd - curStart;
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

namespace
{

std::mutex gSpanMutex;
std::vector<Span> gSpans;  // guarded by gSpanMutex
thread_local int tCurrent = -1;

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::begin(const std::string &name, std::uint64_t op)
{
    if (!records(op))
        return -1;
    Span s;
    s.name = name;
    s.start = nowSeconds();
    s.end = s.start;
    s.parent = tCurrent;
    s.op = op;
    std::lock_guard<std::mutex> lock(gSpanMutex);
    gSpans.push_back(std::move(s));
    return static_cast<int>(gSpans.size() - 1);
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(gSpanMutex);
    gSpans[static_cast<std::size_t>(id)].end = t;
}

int
Tracer::add(const std::string &name, double start, double end, int parent,
            std::uint64_t op)
{
    if (!records(op))
        return -1;
    std::lock_guard<std::mutex> lock(gSpanMutex);
    gSpans.push_back(Span{name, start, end, parent, op});
    return static_cast<int>(gSpans.size() - 1);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(gSpanMutex);
    return gSpans;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(gSpanMutex);
    for (const Span &s : gSpans)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

std::string
Tracer::writeFile(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    json::Value arr = json::Value::array();
    struct Agg
    {
        std::uint64_t count = 0;
        double total = 0;
        double self = 0;
    };
    std::map<std::string, Agg> byName;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        json::Value row = json::Value::object();
        row.set("id", static_cast<std::uint64_t>(i));
        row.set("name", s.name);
        row.set("start_s", s.start);
        row.set("end_s", s.end);
        row.set("parent", s.parent);
        row.set("op", s.op);
        row.set("self_s", self[i]);
        arr.push(std::move(row));
        Agg &a = byName[s.name];
        ++a.count;
        a.total += s.end - s.start;
        a.self += self[i];
    }
    json::Value summary = json::Value::array();
    for (const auto &[name, a] : byName) {
        json::Value row = json::Value::object();
        row.set("name", name);
        row.set("count", a.count);
        row.set("total_s", a.total);
        row.set("self_s", a.self);
        summary.push(std::move(row));
    }
    json::Value doc = json::Value::object();
    doc.set("perfbench_spans", 1);
    doc.set("summary", std::move(summary));
    doc.set("spans", std::move(arr));
    return json::writeFileErr(path, doc);
}

SpanScope::SpanScope(const std::string &name, std::uint64_t op)
    : id_(Tracer::get().begin(name, op)), prev_(tCurrent)
{
    if (id_ >= 0)
        tCurrent = id_;
}

SpanScope::~SpanScope()
{
    if (id_ >= 0) {
        Tracer::get().end(id_);
        tCurrent = prev_;
    }
}

int
currentSpan()
{
    return tCurrent;
}

// ---- child processes ----------------------------------------------------

namespace
{

/** Live child pids, lock-free so the signal handler may walk it. */
std::array<std::atomic<pid_t>, 64> gLive{};

void
registerPid(pid_t pid)
{
    for (auto &slot : gLive) {
        pid_t empty = 0;
        if (slot.compare_exchange_strong(empty, pid))
            return;
    }
}

void
unregisterPid(pid_t pid)
{
    for (auto &slot : gLive) {
        pid_t cur = pid;
        if (slot.compare_exchange_strong(cur, 0))
            return;
    }
}

/** Async-signal-safe: kill and reap every registered child. */
void
killAllChildren()
{
    for (auto &slot : gLive) {
        const pid_t pid = slot.exchange(0);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
        }
    }
}

extern "C" void
reapAndRaise(int sig)
{
    killAllChildren();
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

extern "C" void
reapAtExit()
{
    killAllChildren();
}

} // namespace

void
installChildReaper()
{
    std::atexit(reapAtExit);
    for (int sig : {SIGINT, SIGTERM, SIGHUP})
        ::signal(sig, reapAndRaise);
    // A dead daemon must surface as EPIPE on the benchmark's write.
    ::signal(SIGPIPE, SIG_IGN);
}

Child::~Child()
{
    kill();
}

Child::Child(Child &&other) noexcept : pid_(other.pid_), outFd_(other.outFd_)
{
    other.pid_ = -1;
    other.outFd_ = -1;
}

Child &
Child::operator=(Child &&other) noexcept
{
    if (this != &other) {
        kill();
        pid_ = other.pid_;
        outFd_ = other.outFd_;
        other.pid_ = -1;
        other.outFd_ = -1;
    }
    return *this;
}

std::string
Child::spawn(const std::vector<std::string> &argv, const std::string &logPath,
             bool pipeStdout)
{
    kill();
    // Everything the child touches between fork and exec is prepared
    // here: after fork only async-signal-safe calls are allowed.
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const int logFd =
        ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (logFd < 0)
        return "open " + logPath + ": " + std::strerror(errno);
    int pipeFds[2] = {-1, -1};
    if (pipeStdout && ::pipe2(pipeFds, O_CLOEXEC) != 0) {
        ::close(logFd);
        return std::string("pipe: ") + std::strerror(errno);
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        const std::string err = std::string("fork: ") + std::strerror(errno);
        ::close(logFd);
        if (pipeStdout) {
            ::close(pipeFds[0]);
            ::close(pipeFds[1]);
        }
        return err;
    }
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            _exit(127);
        ::dup2(pipeStdout ? pipeFds[1] : logFd, 1);
        ::dup2(logFd, 2);
        ::execv(args[0], args.data());
        _exit(127);
    }
    registerPid(pid);
    ::close(logFd);
    if (pipeStdout) {
        ::close(pipeFds[1]);
        outFd_ = pipeFds[0];
    }
    pid_ = pid;
    return "";
}

void
Child::release()
{
    if (pid_ > 0)
        unregisterPid(pid_);
    pid_ = -1;
    if (outFd_ >= 0)
        ::close(outFd_);
    outFd_ = -1;
}

int
Child::wait()
{
    int status = -1;
    if (pid_ <= 0)
        return status;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    release();
    return status;
}

int
Child::waitOrKill(double seconds)
{
    if (pid_ <= 0)
        return -1;
    const double deadline = nowSeconds() + seconds;
    while (nowSeconds() < deadline) {
        int status = 0;
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_) {
            release();
            return status;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill();
    return -1;
}

void
Child::kill()
{
    if (pid_ <= 0) {
        release();
        return;
    }
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    release();
}

double
peakRssMiB(double *self, double *children)
{
    rusage me{};
    rusage kids{};
    ::getrusage(RUSAGE_SELF, &me);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    if (self)
        *self = static_cast<double>(me.ru_maxrss) / 1024.0;
    if (children)
        *children = static_cast<double>(kids.ru_maxrss) / 1024.0;
    return static_cast<double>(std::max(me.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

// ---- files ----------------------------------------------------------------

std::string
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return ec ? "mkdir " + path + ": " + ec.message() : "";
}

void
syncFilesystem(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return;
    ::syncfs(fd);
    ::close(fd);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

// ---- fingerprint ------------------------------------------------------

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

json::Value
fingerprint()
{
    json::Value fp = json::Value::object();
    fp.set("cpu_model", cpuModel());
    fp.set("simd_isa", jetty::simd::isaName());
    fp.set("simd_width", static_cast<std::uint64_t>(jetty::simd::lanesU64()));
    fp.set("nproc", std::thread::hardware_concurrency());
    fp.set("compiler", std::string(PERFBENCH_COMPILER));
    fp.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
    fp.set("sanitizer", std::string(PERFBENCH_SANITIZE));
    return fp;
}

std::string
refuseBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "refusing to record numbers from a '" + type + "' build";
    if (sanitized() || !std::string(PERFBENCH_SANITIZE).empty())
        return "refusing to record numbers from a sanitizer build";
#ifndef NDEBUG
    return "refusing to record numbers from a build with assertions on";
#else
    return "";
#endif
}

// ---- correctness gate -------------------------------------------------

namespace
{

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
collectSim(const json::Value &v, std::string &out)
{
    if (v.isObject()) {
        for (const auto &[key, child] : v.members()) {
            if (key == "timing")
                continue;
            if (key == "arch" || key == "per_bus" || key == "filters") {
                out += key;
                out += child.dumpCompact();
                out += '\n';
            } else {
                collectSim(child, out);
            }
        }
    } else if (v.isArray()) {
        for (const auto &item : v.items())
            collectSim(item, out);
    }
}

} // namespace

std::uint64_t
simDigest(const json::Value &report)
{
    std::string text;
    collectSim(report, text);
    // An empty collection means the report carried no simulation at
    // all, which can never match a real one.
    return text.empty() ? 0 : fnv1a(text);
}

// ---- results ------------------------------------------------------------

void
Result::add(const std::string &name, const std::string &unit, double value,
            std::size_t samples, const std::string &note)
{
    metrics.push_back(Metric{name, unit, value, samples, note});
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (problems.size() < 8)
        problems.push_back(why);
}

void
Result::problem(const std::string &why)
{
    problems.push_back(why);
}

} // namespace perfbench
