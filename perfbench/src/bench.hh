/**
 * @file
 * Shared pieces of the repo benchmark: workload specs, the span
 * tracer, percentile estimators, the allocation counter and the
 * metric/result sink every phase reports into.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Heap allocations made by the whole process (alloc_count.cc). */
std::uint64_t allocCount();

/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** Host width the pools are sized against. */
inline unsigned
hostWidth()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/**
 * Moves the calling thread round-robin over the CPUs it may run on and
 * restores its affinity on destruction. On a shared VM each vCPU goes
 * through multi-second slow spells (about 40% slower, measured 4-core
 * VM) at different times; a single-thread phase that stays on one vCPU
 * reports that vCPU's luck, one that visits all of them does not.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&orig);
        ok = pthread_getaffinity_np(pthread_self(), sizeof orig, &orig) == 0;
        for (int c = 0; ok && c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &orig))
                cpus.push_back(c);
    }
    ~CpuRotation() { unpin(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Restore the original affinity (the pool threads' CPUs). */
    void
    unpin()
    {
        if (ok)
            pthread_setaffinity_np(pthread_self(), sizeof orig, &orig);
    }

    /** Pin to the (@p step mod n)-th allowed CPU. */
    void
    pin(std::size_t step)
    {
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[step % cpus.size()], &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }

  private:
    cpu_set_t orig;
    std::vector<int> cpus;
    bool ok = false;
};

// ---------------------------------------------------------------- workloads

/** Open-loop serving parameters: absolute rates, never rescaled from a
 *  run's own capacity. */
struct ServeSpec
{
    bool telemetry = false;  ///< attach a TelemetryHub to the server
    double loQps = 0.0;      ///< the `lo` fixed rate
    double hiQps = 0.0;      ///< the `hi` fixed rate
    double ladderFrom = 0.0; ///< first ladder rate
    double limitUs = 0.0;    ///< fixed p99 latency limit
};

/** Ratio between successive ladder rates (steps <= 10% apart). */
inline constexpr double kLadderStep = 1.05;
inline constexpr int kLadderSteps = 14;

struct WorkloadSpec
{
    std::string name;
    std::string model;    ///< models::makeByName name
    double theta = 0.5;   ///< BwCu cumulative threshold
    int extractLast = 0;  ///< > 0: extract only the last N weighted layers
    int epochs = 2;       ///< fixture training epochs
    double lr = 0.005;    ///< fixture training learning rate
    ServeSpec serve;
};

/** The benchmark's workloads; nullptr when @p name is unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Weighted layers reported one by one as nn.fwd_us.w<k>; every
 *  workload net has at least this many. */
inline constexpr std::size_t kReportedWeightedLayers = 8;

// ---------------------------------------------------------------- estimators

/** Order statistic at quantile @p q (nearest rank) of @p v (sorted in
 *  place). Empty input gives NaN. */
inline double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

/**
 * Tail quantile of the end-to-end latency metrics. Every latency run
 * has >= 1000 samples, so p99 is well sampled and is printed with each
 * timing; but on a shared 4-core VM multi-millisecond stalls move p99
 * by 50-250% between runs, while p90 stays within ~10%.
 */
inline constexpr double kTailQ = 0.90;

/** Median plus the highest percentile with >= 10 samples beyond it. */
struct Summary
{
    double p50 = 0.0;
    double tail = 0.0;   ///< value at tailQ
    double tailQ = 0.5;  ///< highest well-sampled quantile (0.5 if n < 100)
    std::size_t n = 0;
};

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    s.p50 = quantile(v, 0.5);
    for (double q : {0.999, 0.99, 0.9}) {
        if (static_cast<double>(s.n) * (1.0 - q) >= 10.0) {
            s.tailQ = q;
            break;
        }
    }
    s.tail = quantile(v, s.tailQ);
    return s;
}

// ---------------------------------------------------------------- tracing

/** Names a span can carry; dense ids keep a span record small. */
enum SpanName : std::uint16_t
{
    kSpanDetect,        ///< one decomposed detection (request root)
    kSpanForward,       ///< nn: the node walk
    kSpanNode,          ///< nn: one node's forwardInto (node id in aux)
    kSpanExtract,       ///< path: PathExtractor::extractInto
    kSpanSimilarity,    ///< path: computeSimilarityInto
    kSpanForest,        ///< classify: RandomForest::predictProb
    kSpanDetectBatch,   ///< core: DetectorSession::detectBatch
    kSpanDetectSingle,  ///< core: DetectorSession::detect
    kSpanSubmit,        ///< serve: DetectorServer::submit
    kSpanWait,          ///< serve: DetectorServer::wait
    kSpanIngest,        ///< telemetry: TelemetryHub::ingest
    kSpanSeal,          ///< telemetry: TelemetryHub::sealWindow
    kSpanCompile,       ///< compiler: Compiler::compile
    kSpanSimulate,      ///< hw: Simulator::run
    kSpanSetup,         ///< core: trained net -> DetectorModel
    kNumSpanNames,
};

const char *spanNameString(SpanName n);

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
    std::uint32_t request = 0;
    std::uint16_t name = 0;
    std::uint16_t aux = 0;    ///< node id for kSpanNode
};

/**
 * Preallocated, single-writer span buffer. Disabled unless the run is
 * traced; a disabled tracer records nothing and costs one branch.
 * Spans are recorded only from the thread that drives the library
 * (the benchmark's own call sites), so no synchronization is needed.
 */
class Tracer
{
  public:
    void
    enable(std::size_t capacity)
    {
        spans.reserve(capacity);
        cap = capacity;
        on = true;
    }

    bool enabled() const { return on; }

    /** Room for @p n more spans? Phases stop before overflowing. */
    bool
    room(std::size_t n) const
    {
        return !on || spans.size() + n <= cap;
    }

    /** Open a span; returns its index (or -1 when disabled/full). */
    std::int32_t
    open(SpanName name, std::uint32_t request, std::uint16_t aux = 0)
    {
        if (!on || spans.size() >= cap)
            return -1;
        Span s;
        s.parent = stack;
        s.request = request;
        s.name = name;
        s.aux = aux;
        spans.push_back(s);
        stack = static_cast<std::int32_t>(spans.size() - 1);
        spans.back().start = nowNs();
        return stack;
    }

    void
    close(std::int32_t id)
    {
        if (id < 0)
            return;
        spans[id].end = nowNs();
        stack = spans[id].parent;
    }

    const std::vector<Span> &all() const { return spans; }

    /** Self time of every span: duration minus its children's. */
    std::vector<std::int64_t> selfTimes() const;

    /** Write every span as TSV (id, parent, request, name, aux, start,
     *  end in ns). @return success. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::size_t cap = 0;
    std::int32_t stack = -1;
    bool on = false;
};

/** The process's tracer. */
Tracer &tracer();

/** RAII span on the process tracer. */
class Scope
{
  public:
    Scope(SpanName name, std::uint32_t request, std::uint16_t aux = 0)
        : id(tracer().open(name, request, aux))
    {
    }
    ~Scope() { tracer().close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int32_t id;
};

// ---------------------------------------------------------------- results

/** Output checks and metrics of one run. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool invariantsHeld = true; ///< non-counted checks (node walk, ...)
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** Count one phase's checks and print its line. */
    void
    phase(const char *what, std::uint64_t checked, std::uint64_t bad)
    {
        attempted += checked;
        failed += bad;
        std::printf("check %-22s attempted %8llu failed %llu\n", what,
                    static_cast<unsigned long long>(checked),
                    static_cast<unsigned long long>(bad));
    }

    /** Print a timing estimator with its sample count. */
    static void
    timing(const char *what, const Summary &s, const char *unit)
    {
        std::printf("timing %-26s p50 %12.3f  p%-5g %12.3f %-3s n=%zu\n",
                    what, s.p50, s.tailQ * 100.0, s.tail, unit, s.n);
    }
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
