/**
 * @file
 * The repo benchmark: three workloads over the public detector API.
 *
 *   ptolemy_perfbench --workload <batch-late|batch-full|serve-open>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--spans-dir <dir>]
 *
 * Every workload trains its fixture net in-process, builds the
 * DetectorModel (timed as setup_s), generates its inputs and BIM
 * adversarials from --seed, and computes a single-stream detect()
 * reference Decision per input. Every later Decision — batched, served
 * or decomposed — is checked bitwise against that reference.
 *
 * --trace 0 measures the end-to-end metrics (set-up, detectBatch and
 * detect timings, AUC, peak RSS). --trace 1 runs the detect phase
 * again with a span around every public call, adds the per-layer
 * probes and the open-loop serving phase, writes the spans as TSV and
 * reports the per-layer metrics.
 * The last stdout line is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "phases.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;

/**
 * The workloads. Serving rates are absolute and fixed, never rescaled
 * from a run's own capacity. They were chosen once on a 4-core AVX2 VM,
 * where the ladder found serving capacities of about 7300/s
 * (batch-late), 620/s (batch-full) and 4500/s (serve-open). `lo` is
 * 0.15-0.3x of that and `hi` 0.35-0.6x: at 0.8x the ResNet servers'
 * latency moved by up to 10x between runs of the same code. Each ladder
 * starts near 0.55x so that a slower host still finds a passing step.
 */
const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> v;
        WorkloadSpec late;
        late.name = "batch-late";
        late.model = "resnet18";
        late.theta = 0.5;
        late.extractLast = 2;
        late.serve = {false, 1100, 2600, 4000, 40000};
        v.push_back(late);
        WorkloadSpec full;
        full.name = "batch-full";
        full.model = "resnet18";
        full.theta = 0.9;
        full.serve = {false, 110, 260, 380, 150000};
        v.push_back(full);
        WorkloadSpec open;
        open.name = "serve-open";
        open.model = "alexnet";
        open.theta = 0.5;
        open.epochs = 4;
        open.lr = 0.02;
        open.serve = {true, 1400, 2700, 2800, 40000};
        v.push_back(open);
        return v;
    }();
    return all;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spansDir = ".bench_build/perfbench/spans";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (k == "--spans-dir")
            a.spansDir = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1);
}

/** Print the result object; @return whether the run is correct. */
bool
printResult(const Report &rep, bool correct)
{
    // A metric that could not be measured is not a result.
    for (const auto &m : rep.metrics)
        if (!std::isfinite(m.second.first)) {
            std::printf("metric %s is not finite\n", m.first.c_str());
            correct = false;
        }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto &[name, vu] = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(),
                    std::isfinite(vu.first) ? vu.first : -1.0,
                    vu.second.c_str());
    }
    std::printf("}}\n");
    return correct;
}

int
run(const Args &a)
{
    const WorkloadSpec *spec = findWorkload(a.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
        return 2;
    }
    const bool traced = a.trace == 1;
    if (traced)
        tracer().enable(kSpanCapacity);
    const double S = a.seconds;

    World w(*spec);
    buildWorld(w, a.seed);
    std::printf("workload %s seed %llu: %zu inputs (%zu adversarial), "
                "train %.3f s, clean accuracy %.3f, host width %u\n",
                spec->name.c_str(), static_cast<unsigned long long>(a.seed),
                w.inputs.size(),
                static_cast<std::size_t>(
                    std::count(w.isAdv.begin(), w.isAdv.end(), 1)),
                w.trainSeconds, w.cleanAccuracy, hostWidth());

    Report rep;
    ThreadPool wide(hostWidth());
    const double auc = measureAuc(w, wide, rep);
    if (!traced) {
        runDetect(w, wide, S, rep); // also times the set-ups
        Report::timing("setup", summarize(w.setupSeconds), "s");
        rep.metric("setup_s", median(w.setupSeconds), "s");
        rep.metric("auc", auc, "1");
        rep.metric("peak_rss_mb", peakRssMb(), "MiB");
    } else {
        runDetect(w, wide, 0.1 * S, rep);
        runDecomposed(w, 0.15 * S, rep);
        runScaling(w, wide, 0.1 * S, rep);
        runTraceOverhead(w, 0.05 * S, rep);
        runServe(w, 0.6 * S, rep);
        probeTelemetry(w, rep);
        probePathCounts(w, rep);
        probeHw(w, rep);

        std::filesystem::create_directories(a.spansDir);
        const std::string out = a.spansDir + "/" + spec->name + "-seed" +
                                std::to_string(a.seed) + ".tsv";
        if (!tracer().write(out)) {
            std::fprintf(stderr, "cannot write spans to %s\n", out.c_str());
            rep.invariantsHeld = false;
        }
        std::printf("spans: %zu written to %s\n", tracer().all().size(),
                    out.c_str());
    }
    const bool correct = rep.failed == 0 && rep.invariantsHeld;
    std::fflush(stdout);
    return printResult(rep, correct) ? 0 : 1;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

const char *
spanNameString(SpanName n)
{
    static const char *names[kNumSpanNames] = {
        "detect",          "nn.forward",       "nn.node",
        "path.extract",    "path.similarity",  "classify.forest",
        "core.detectBatch", "core.detect",     "serve.submit",
        "serve.wait",      "telemetry.ingest", "telemetry.seal",
        "compiler.compile", "hw.simulate",     "core.setup",
    };
    return n < kNumSpanNames ? names[n] : "?";
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "id\tparent\trequest\tname\taux\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << i << '\t' << s.parent << '\t' << s.request << '\t'
           << spanNameString(static_cast<SpanName>(s.name)) << '\t' << s.aux
           << '\t' << s.start << '\t' << s.end << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args a;
    if (!perfbench::parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--spans-dir <dir>]\n",
                     argv[0]);
        return 2;
    }
    try {
        return perfbench::run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "benchmark failed: %s\n", e.what());
        return 1;
    }
}
