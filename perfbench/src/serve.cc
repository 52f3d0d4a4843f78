// Open-loop serving phase: one generator thread sends on a seeded
// Poisson schedule at fixed absolute rates; every request is timed from
// the moment it was due, not from when it was actually submitted.

#include <cmath>
#include <memory>
#include <random>
#include <thread>

#include "phases.hh"
#include "serve/server.hh"
#include "telemetry/hub.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kMinRequests = 1000;     // >= 10 beyond p99
constexpr std::size_t kMinLadderRequests = 400; // 99% = at most 4 late
constexpr double kMissingUs = 1e9;             // non-kOk: counts as missing
constexpr std::size_t kServeEpochs = 4;

/** Everything one open-loop phase observed. */
struct PhaseResult
{
    double rate = 0.0;
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t okWithinLimit = 0;
    std::size_t mismatched = 0;
    std::vector<double> latUs;    ///< from scheduled time; kMissingUs if not kOk
    std::vector<double> lagUs;    ///< how late the generator sent
    std::vector<double> submitNs; ///< DetectorServer::submit call time
    std::vector<double> depth;    ///< queueDepth() at each send
    std::uint64_t allocs = 0;     ///< heap allocations while it ran
    // Server counters over the phase (ServeStatsSnapshot deltas).
    std::uint64_t batches = 0, okServed = 0, shed = 0, submitted = 0;

    bool
    backlogGrew(std::size_t max_batch) const
    {
        // Mean queue depth over the last quarter of sends vs the second
        // quarter: a stable queue keeps it within one batch.
        const std::size_t q = depth.size() / 4;
        if (q == 0)
            return false;
        double a = 0, b = 0;
        for (std::size_t i = q; i < 2 * q; ++i)
            a += depth[i];
        for (std::size_t i = depth.size() - q; i < depth.size(); ++i)
            b += depth[i];
        return b / q > 1.5 * (a / q) + static_cast<double>(max_batch);
    }
};

class Generator
{
  public:
    Generator(World &w, serve::DetectorServer &srv, std::uint64_t seed,
              std::size_t capacity)
        : w(w), srv(srv), rng(seed), slab(capacity), sched(capacity),
          pick(capacity)
    {
        // Pre-size every slot's Decision so the server's copy into it
        // reuses capacity (steady state is allocation-free).
        for (auto &r : slab)
            r.decision = w.reference[0];
    }

    /** Send @p n requests at @p rate (Poisson) and wait for all. */
    PhaseResult
    run(double rate, std::size_t n, double limit_us)
    {
        PhaseResult res;
        n = std::min(n, slab.size());
        res.rate = rate;
        res.latUs.reserve(n);
        res.lagUs.reserve(n);
        res.submitNs.reserve(n);
        res.depth.reserve(n);
        std::exponential_distribution<double> gap(rate);
        std::uniform_int_distribution<std::size_t> which(
            0, w.inputs.size() - 1);
        double t = 0;
        for (std::size_t i = 0; i < n; ++i) {
            t += gap(rng);
            sched[i] = t;
            pick[i] = which(rng);
        }
        const serve::ServeStatsSnapshot before = srv.stats();
        const std::uint64_t a0 = allocCount();
        const auto start = Clock::now() + std::chrono::milliseconds(1);
        for (std::size_t i = 0; i < n; ++i) {
            const auto due = start + std::chrono::nanoseconds(
                                         static_cast<std::int64_t>(
                                             sched[i] * 1e9));
            waitUntil(due);
            const auto sent = Clock::now();
            res.lagUs.push_back(
                std::chrono::duration<double, std::micro>(sent - due)
                    .count());
            auto &r = slab[i];
            r.reset(w.inputs[pick[i]]);
            {
                Scope span(kSpanSubmit, static_cast<std::uint32_t>(i));
                srv.submit(r);
            }
            res.submitNs.push_back(
                std::chrono::duration<double, std::nano>(Clock::now() -
                                                         sent)
                    .count());
            res.depth.push_back(static_cast<double>(srv.queueDepth()));
        }
        for (std::size_t i = 0; i < n; ++i) {
            auto &r = slab[i];
            serve::RequestStatus st;
            {
                Scope span(kSpanWait, static_cast<std::uint32_t>(i));
                st = srv.wait(r);
            }
            const auto due = start + std::chrono::nanoseconds(
                                         static_cast<std::int64_t>(
                                             sched[i] * 1e9));
            double us = kMissingUs;
            if (st == serve::RequestStatus::kOk) {
                ++res.ok;
                us = std::chrono::duration<double, std::micro>(
                         r.completedAt - due)
                         .count();
                if (us <= limit_us)
                    ++res.okWithinLimit;
                if (!sameDecision(r.decision, w.reference[pick[i]]))
                    ++res.mismatched;
            }
            res.latUs.push_back(us);
        }
        res.allocs = allocCount() - a0;
        const serve::ServeStatsSnapshot after = srv.stats();
        res.batches = after.batches - before.batches;
        res.okServed = after.ok - before.ok;
        res.shed = after.shed - before.shed;
        res.submitted = after.submitted - before.submitted;
        res.sent = n;
        return res;
    }

  private:
    /** Yield-spin until @p due: a sleeping generator on a VM can
     *  oversleep by milliseconds, which would be charged to every
     *  request due meanwhile; yielding lets server threads that share
     *  the generator's CPU run. */
    static void
    waitUntil(Clock::time_point due)
    {
        while (Clock::now() < due)
            std::this_thread::yield();
    }

    World &w;
    serve::DetectorServer &srv;
    std::mt19937_64 rng;
    std::vector<serve::ServeRequest> slab;
    std::vector<double> sched;
    std::vector<std::size_t> pick;
};

std::size_t
requestsFor(double rate, double seconds)
{
    return std::max(kMinRequests, static_cast<std::size_t>(rate * seconds));
}

/** Fold one epoch's observations of a rate into the run's total. */
void
absorb(PhaseResult &total, PhaseResult &&part)
{
    if (total.sent == 0) {
        total = std::move(part);
        return;
    }
    auto append = [](std::vector<double> &a, const std::vector<double> &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    append(total.latUs, part.latUs);
    append(total.lagUs, part.lagUs);
    append(total.submitNs, part.submitNs);
    append(total.depth, part.depth);
    total.sent += part.sent;
    total.ok += part.ok;
    total.okWithinLimit += part.okWithinLimit;
    total.mismatched += part.mismatched;
    total.allocs += part.allocs;
    total.batches += part.batches;
    total.okServed += part.okServed;
    total.shed += part.shed;
    total.submitted += part.submitted;
}

void
printPhase(const char *what, PhaseResult &p)
{
    const Summary s = summarize(p.latUs);
    std::printf("serve %-8s rate %8.1f/s sent %6zu ok %6zu within-limit "
                "%6zu shed %llu batch %.2f depth %.2f lag p50 %.1f p99 %.1f "
                "us\n",
                what, p.rate, p.sent, p.ok, p.okWithinLimit,
                static_cast<unsigned long long>(p.shed),
                p.batches ? static_cast<double>(p.okServed) / p.batches
                          : 0.0,
                median(p.depth), median(p.lagUs), quantile(p.lagUs, 0.99));
    Report::timing((std::string("serve.") + what + " latency").c_str(), s,
                   "us");
}

/**
 * One serving stack: pool, optional telemetry hub, server and the
 * generator's request slab. Generator + dispatcher (the pool's calling
 * thread) + pool workers together use the host width.
 */
struct Rig
{
    Rig(World &w, std::size_t capacity, std::uint64_t seed, Report &rep)
        : pool(hostWidth() > 2 ? hostWidth() - 1 : 1)
    {
        const ServeSpec &sp = w.spec.serve;
        if (sp.telemetry) {
            telemetry::TelemetryConfig tc;
            tc.numClasses = w.model->numClasses();
            tc.slots = pool.size();
            hub = std::make_unique<telemetry::TelemetryHub>(tc);
        }
        serve::ServeConfig cfg;
        cfg.queueDepth = 512;
        cfg.pool = &pool;
        cfg.telemetry = hub.get();
        srv = std::make_unique<serve::DetectorServer>(*w.model, cfg);
        gen = std::make_unique<Generator>(w, *srv, seed, capacity);
        // Warm the server, then (with telemetry) capture the reference
        // profile from the warm-up traffic.
        const PhaseResult warm =
            gen->run(sp.loQps, std::min<std::size_t>(capacity, 200),
                     sp.limitUs);
        rep.phase("serve.warmup", warm.sent,
                  warm.mismatched + (warm.sent - warm.ok));
        if (hub)
            hub->captureReference();
    }

    ThreadPool pool;
    std::unique_ptr<telemetry::TelemetryHub> hub;
    std::unique_ptr<serve::DetectorServer> srv;
    std::unique_ptr<Generator> gen;
};

/**
 * The fixed `lo` and `hi` rates, alternating over several epochs, each
 * on a fresh serving stack in a fresh memory layout (see relayout).
 * Every request must resolve kOk with its reference Decision.
 */
void
runFixedRates(World &w, double seconds, Report &rep)
{
    const ServeSpec &sp = w.spec.serve;
    const std::size_t nLo = requestsFor(sp.loQps, 0.4 * seconds) /
                                kServeEpochs + 1;
    const std::size_t nHi = requestsFor(sp.hiQps, 0.6 * seconds) /
                                kServeEpochs + 1;
    PhaseResult lo, hi;
    for (std::size_t e = 0; e < kServeEpochs; ++e) {
        relayout(w, e);
        Rig rig(w, std::max(nLo, nHi), w.seed ^ (0x5E27E + e), rep);
        absorb(lo, rig.gen->run(sp.loQps, nLo, sp.limitUs));
        absorb(hi, rig.gen->run(sp.hiQps, nHi, sp.limitUs));
    }
    printPhase("lo", lo);
    printPhase("hi", hi);
    rep.phase("serve.lo+hi", lo.sent + hi.sent,
              lo.mismatched + (lo.sent - lo.ok) + hi.mismatched +
                  (hi.sent - hi.ok));

    rep.metric("serve.lo_p50_us", quantile(lo.latUs, 0.5), "us");
    rep.metric("serve.lo_p90_us", quantile(lo.latUs, kTailQ), "us");
    rep.metric("serve.hi_p50_us", quantile(hi.latUs, 0.5), "us");
    rep.metric("serve.hi_p90_us", quantile(hi.latUs, kTailQ), "us");
    rep.metric("serve.hi_ok_frac",
               static_cast<double>(hi.okWithinLimit) / hi.sent, "1");
    Report::timing("serve.submit", summarize(hi.submitNs), "ns");
    Report::timing("serve.gen_lag", summarize(hi.lagUs), "us");
    double depth = 0;
    for (double d : hi.depth)
        depth += d;
    rep.metric("serve.submit_ns", median(hi.submitNs), "ns");
    rep.metric("serve.batch_size_mean",
               hi.batches ? static_cast<double>(hi.okServed) / hi.batches
                          : 0.0,
               "count");
    rep.metric("serve.queue_depth_mean", depth / hi.depth.size(), "count");
    rep.metric("serve.gen_lag_us", median(hi.lagUs), "us");
    rep.metric("serve.shed_frac",
               hi.submitted ? static_cast<double>(hi.shed) / hi.submitted
                            : 0.0,
               "1");
    rep.metric("serve.alloc_per_request",
               static_cast<double>(hi.allocs) / hi.sent, "count");
}

} // namespace

void
runServe(World &w, double seconds, Report &rep)
{
    const ServeSpec &sp = w.spec.serve;
    runFixedRates(w, 0.5 * seconds, rep);

    // Ladder: fixed absolute rates, ascending; stops at the first rate
    // that misses the latency limit or grows a backlog. Probes above
    // the limit are reported, not counted as failures; a mismatched
    // Decision is.
    const double stepS = 0.5 * seconds / (kLadderSteps / 2);
    std::vector<std::size_t> steps;
    std::size_t cap = 0;
    for (int k = 0; k < kLadderSteps; ++k) {
        const double r = sp.ladderFrom * std::pow(kLadderStep, k);
        steps.push_back(std::max<std::size_t>(
            kMinLadderRequests, static_cast<std::size_t>(r * stepS)));
        cap = std::max(cap, steps.back());
    }
    relayout(w, 0);
    Rig rig(w, cap, w.seed ^ 0x1ADDE5, rep);
    double goodput = sp.ladderFrom / kLadderStep;
    std::uint64_t checked = 0, bad = 0;
    for (int k = 0; k < kLadderSteps; ++k) {
        const double r = sp.ladderFrom * std::pow(kLadderStep, k);
        PhaseResult p = rig.gen->run(r, steps[k], sp.limitUs);
        checked += p.ok;
        bad += p.mismatched;
        const bool grew = p.backlogGrew(serve::ServeConfig{}.maxBatch);
        const bool meets =
            static_cast<double>(p.okWithinLimit) >= 0.99 * p.sent && !grew;
        const Summary s = summarize(p.latUs);
        std::printf("ladder %8.1f/s: p50 %.1f us p%g %.1f us, within-limit "
                    "%.4f, backlog %s -> %s\n",
                    r, s.p50, s.tailQ * 100, s.tail,
                    static_cast<double>(p.okWithinLimit) / p.sent,
                    grew ? "grew" : "stable", meets ? "meets" : "misses");
        if (!meets)
            break;
        goodput = r;
    }
    rep.phase("serve.ladder", checked, bad);
    rep.metric("serve.goodput_qps", goodput, "1/s");
}

} // namespace perfbench
