// Closed-loop batch phases and the traced per-layer decomposition of
// one detection.

#include <cmath>
#include <cstring>
#include <string>

#include "classify/random_forest.hh"
#include "phases.hh"
#include "path/class_path.hh"
#include "path/trace.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kBatch = 64;
constexpr std::size_t kMinLatencySamples = 1000; // >= 10 beyond p99

double
microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

bool
sameRecord(const nn::Network::Record &a, const nn::Network::Record &b)
{
    if (a.outputs.size() != b.outputs.size())
        return false;
    for (std::size_t i = 0; i < a.outputs.size(); ++i) {
        const auto &x = a.outputs[i];
        const auto &y = b.outputs[i];
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * One detection decomposed into the public calls detect() makes: a
 * node walk over Network::layerAt(id).forwardInto that reproduces
 * inferInto's Record, PathExtractor::extractInto,
 * computeSimilarityInto and RandomForest::predictProb — each inside a
 * span.
 */
class Walker
{
  public:
    explicit Walker(const core::DetectorModel &m)
        : mdl(m), net(m.network())
    {
    }

    const nn::Network::Record &record() const { return rec; }

    void
    forward(const nn::Tensor &x, std::uint32_t rid)
    {
        Scope fwd(kSpanForward, rid);
        rec.input = x;
        rec.outputs.resize(static_cast<std::size_t>(net.numNodes()));
        for (int id = 0; id < net.numNodes(); ++id) {
            ins.clear();
            for (int in_id : net.node(id).inputs)
                ins.push_back(in_id < 0 ? &rec.input : &rec.outputs[in_id]);
            Scope node(kSpanNode, rid, static_cast<std::uint16_t>(id));
            net.layerAt(id).forwardInto(ins, rec.outputs[id], false);
        }
    }

    void
    detect(const nn::Tensor &x, std::uint32_t rid, core::Decision &d)
    {
        Scope root(kSpanDetect, rid);
        forward(x, rid);
        d.predictedClass = rec.predictedClass();
        {
            Scope s(kSpanExtract, rid);
            mdl.extractor().extractInto(rec, ws, bits);
        }
        {
            Scope s(kSpanSimilarity, rid);
            path::computeSimilarityInto(
                bits, mdl.classPaths().classPath(d.predictedClass),
                mdl.extractor().layout(), d.features);
        }
        {
            Scope s(kSpanForest, rid);
            d.features.toVectorInto(feat);
            d.score = mdl.forest().predictProb(feat);
        }
        d.adversarial = std::isfinite(d.score) ? d.score >= 0.5 : true;
    }

    std::size_t spansPerDetect() const
    {
        return static_cast<std::size_t>(net.numNodes()) + 5;
    }

  private:
    const core::DetectorModel &mdl;
    const nn::Network &net;
    nn::Network::Record rec;
    path::ExtractionWorkspace ws;
    BitVector bits;
    std::vector<double> feat;
    std::vector<const nn::Tensor *> ins;
};

} // namespace

void
runDetect(World &w, ThreadPool &pool, double seconds, Report &rep)
{
    const std::size_t n = w.inputs.size();
    std::vector<const nn::Tensor *> xs(kBatch);
    std::vector<core::Decision> out(kBatch);
    const std::span<const nn::Tensor *const> xspan(xs.data(), xs.size());
    const std::span<core::Decision> ospan(out.data(), out.size());
    std::uint64_t batchChecked = 0, batchBad = 0;
    std::uint64_t singleChecked = 0, singleBad = 0;
    std::vector<double> perDetect, lat;
    perDetect.reserve(1 << 16);
    lat.reserve(1 << 18);
    double allocs = 0;
    std::size_t b = 0, k = 0;
    CpuRotation cpu;
    // Batch and single-stream slices alternate over the layout epochs,
    // so both sample the same stretch of host time.
    const double slice = seconds / (2 * kLayoutEpochs);
    for (std::size_t e = 0; e < kLayoutEpochs; ++e) {
        // Every other epoch times a whole set-up, so setup_s samples the
        // run's whole span rather than its first second.
        relayout(w, e, e % 2 == 0);
        core::DetectorSession sess(*w.model);

        // Closed-loop detectBatch, 64-request batches, pool width nproc.
        auto batch = [&](bool timed) {
            for (std::size_t i = 0; i < kBatch; ++i)
                xs[i] = &w.inputs[(b * kBatch + i) % n];
            const auto s = Clock::now();
            {
                Scope span(kSpanDetectBatch, static_cast<std::uint32_t>(b));
                sess.detectBatch(xspan, ospan, &pool);
            }
            if (timed)
                perDetect.push_back(microsSince(s) / kBatch);
            for (std::size_t i = 0; i < kBatch; ++i, ++batchChecked)
                batchBad += sameDecision(out[i],
                                         w.reference[(b * kBatch + i) % n])
                                ? 0
                                : 1;
            ++b;
        };
        batch(false); // warm every slot's scratch
        batch(false);
        const std::uint64_t a0 = allocCount();
        auto t0 = Clock::now();
        while (secondsSince(t0) < slice && tracer().room(1) &&
               perDetect.size() < perDetect.capacity())
            batch(true);
        allocs += static_cast<double>(allocCount() - a0);

        // Single-stream detect() on one thread, pinned to the next CPU.
        cpu.pin(e);
        for (std::size_t i = 0; i < 8; ++i, ++singleChecked) {
            const std::size_t j = (k + i) % n;
            singleBad += sameDecision(sess.detect(w.inputs[j]), w.reference[j])
                             ? 0
                             : 1;
        }
        const std::size_t want = (e + 1) * kMinLatencySamples / kLayoutEpochs;
        t0 = Clock::now();
        for (; (secondsSince(t0) < slice || lat.size() < want) &&
               lat.size() < lat.capacity() && tracer().room(1);
             ++k) {
            const std::size_t i = k % n;
            const auto s = Clock::now();
            core::Decision d;
            {
                Scope span(kSpanDetectSingle, static_cast<std::uint32_t>(k));
                d = sess.detect(w.inputs[i]);
            }
            lat.push_back(microsSince(s));
            singleBad += sameDecision(d, w.reference[i]) ? 0 : 1;
        }
        cpu.unpin();
    }
    rep.phase("detectBatch", batchChecked, batchBad);
    rep.phase("detect", singleChecked + lat.size(), singleBad);

    const double detects = static_cast<double>(perDetect.size() * kBatch);
    const Summary sb = summarize(perDetect), ss = summarize(lat);
    Report::timing("detectBatch us/detect", sb, "us");
    Report::timing("detect latency", ss, "us");
    std::printf("allocs detectBatch %.0f over %.0f detections (pool %u)\n",
                allocs, detects, pool.size());
    if (tracer().enabled()) {
        rep.metric("core.batch_us_per_detect", sb.p50, "us");
        rep.metric("core.alloc_per_detect", allocs / detects, "count");
    } else {
        rep.metric("detect_per_s", 1e6 / sb.p50, "1/s");
        rep.metric("detect_p50_us", ss.p50, "us");
        rep.metric("detect_p90_us", quantile(lat, kTailQ), "us");
    }
}

void
runDecomposed(World &w, double seconds, Report &rep)
{
    const core::DetectorModel &m = *w.model;
    const nn::Network &net = m.network();
    const std::size_t n = w.inputs.size();
    Walker walk(m);
    core::Decision d;

    // Node-walk check: a per-layer time is only valid if the walk did
    // the real work, i.e. produced inferInto's Record bit for bit.
    nn::Network::Record ref;
    std::uint64_t recBad = 0, decBad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        walk.forward(w.inputs[i], 0);
        net.inferInto(w.inputs[i], ref);
        recBad += sameRecord(walk.record(), ref) ? 0 : 1;
    }
    rep.phase("nodewalk.record", n, recBad);
    if (recBad != 0)
        rep.invariantsHeld = false;

    const std::size_t first = tracer().all().size();
    std::size_t k = 0;
    CpuRotation cpu;
    for (std::size_t e = 0; e < kLayoutEpochs; ++e) {
        relayout(w, e);
        cpu.pin(e);
        Walker ew(m);
        const std::size_t want = (e + 1) * kMinLatencySamples / kLayoutEpochs;
        const auto t0 = Clock::now();
        for (; (secondsSince(t0) < seconds / kLayoutEpochs || k < want) &&
               tracer().room(ew.spansPerDetect());
             ++k) {
            const std::size_t i = k % n;
            ew.detect(w.inputs[i], static_cast<std::uint32_t>(k), d);
            decBad += sameDecision(d, w.reference[i]) ? 0 : 1;
        }
    }
    rep.phase("nodewalk.decision", k, decBad);

    // Per-detection inclusive times and self-time shares.
    const auto &spans = tracer().all();
    const auto self = tracer().selfTimes();
    const auto &wids = net.weightedNodes();
    std::vector<int> widx(static_cast<std::size_t>(net.numNodes()), -1);
    for (std::size_t j = 0; j < wids.size(); ++j)
        widx[static_cast<std::size_t>(wids[j])] = static_cast<int>(j);

    std::vector<double> fwd, other, extract, sim, forest;
    std::vector<std::vector<double>> perW(wids.size());
    double detectNs = 0, nnSelf = 0, pathSelf = 0, clsSelf = 0;
    double curWeighted = 0, curFwd = 0;
    for (std::size_t j = first; j < spans.size(); ++j) {
        const Span &s = spans[j];
        const double us = static_cast<double>(s.end - s.start) * 1e-3;
        switch (s.name) {
        case kSpanDetect: detectNs += static_cast<double>(s.end - s.start);
            break;
        case kSpanForward:
            if (curFwd > 0)
                other.push_back(curFwd - curWeighted);
            curFwd = us;
            curWeighted = 0;
            fwd.push_back(us);
            nnSelf += static_cast<double>(self[j]);
            break;
        case kSpanNode:
            nnSelf += static_cast<double>(self[j]);
            if (widx[s.aux] >= 0) {
                perW[static_cast<std::size_t>(widx[s.aux])].push_back(us);
                curWeighted += us;
            }
            break;
        case kSpanExtract: extract.push_back(us);
            pathSelf += static_cast<double>(self[j]);
            break;
        case kSpanSimilarity: sim.push_back(us);
            pathSelf += static_cast<double>(self[j]);
            break;
        case kSpanForest: forest.push_back(us);
            clsSelf += static_cast<double>(self[j]);
            break;
        default: break;
        }
    }
    if (curFwd > 0)
        other.push_back(curFwd - curWeighted);

    double macs = 0;
    for (int id : wids)
        macs += static_cast<double>(path::weightedLayerMacs(net, id));
    const Summary sf = summarize(fwd);
    Report::timing("nn.fwd", sf, "us");
    Report::timing("nn.fwd.other", summarize(other), "us");
    for (std::size_t j = 0; j < perW.size(); ++j) {
        const std::string name = "nn.fwd.w" + std::to_string(j) + " (" +
                                 net.layerAt(wids[j]).name() + ")";
        Report::timing(name.c_str(), summarize(perW[j]), "us");
    }
    const Summary se = summarize(extract), ss = summarize(sim),
                  sc = summarize(forest);
    Report::timing("path.extract", se, "us");
    Report::timing("path.similarity", ss, "us");
    Report::timing("classify.forest", sc, "us");
    std::printf("self-time share of detect: nn %.4f path %.4f classify "
                "%.4f (%zu detections)\n",
                nnSelf / detectNs, pathSelf / detectNs, clsSelf / detectNs,
                k);

    rep.metric("nn.fwd_us", sf.p50, "us");
    for (std::size_t j = 0; j < kReportedWeightedLayers; ++j)
        rep.metric("nn.fwd_us.w" + std::to_string(j),
                   j < perW.size() ? median(perW[j]) : 0.0, "us");
    rep.metric("nn.fwd_us.other", median(other), "us");
    rep.metric("nn.gflops", 2.0 * macs / (sf.p50 * 1e3), "GFLOP/s");
    rep.metric("nn.detect_share", nnSelf / detectNs, "1");
    rep.metric("path.extract_us", se.p50, "us");
    rep.metric("path.similarity_us", ss.p50, "us");
    rep.metric("path.detect_share", pathSelf / detectNs, "1");
    rep.metric("classify.forest_us", sc.p50, "us");
}

void
runScaling(World &w, ThreadPool &wide, double seconds, Report &rep)
{
    ThreadPool one(1);
    core::DetectorSession sWide(*w.model), sOne(*w.model);
    const std::size_t n = w.inputs.size();
    std::vector<const nn::Tensor *> xs(kBatch);
    std::vector<core::Decision> out(kBatch);
    const std::span<const nn::Tensor *const> xspan(xs.data(), xs.size());
    const std::span<core::Decision> ospan(out.data(), out.size());
    std::uint64_t checked = 0, bad = 0;
    auto batch = [&](core::DetectorSession &s, ThreadPool &p,
                     std::size_t b) {
        for (std::size_t i = 0; i < kBatch; ++i)
            xs[i] = &w.inputs[(b * kBatch + i) % n];
        const auto t = Clock::now();
        {
            Scope span(kSpanDetectBatch, static_cast<std::uint32_t>(b));
            s.detectBatch(xspan, ospan, &p);
        }
        const double us = microsSince(t);
        for (std::size_t i = 0; i < kBatch; ++i, ++checked)
            bad += sameDecision(out[i], w.reference[(b * kBatch + i) % n])
                       ? 0
                       : 1;
        return us;
    };
    batch(sWide, wide, 0);
    batch(sOne, one, 0);
    std::vector<double> ratios;
    const auto t0 = Clock::now();
    for (std::size_t b = 1;
         (secondsSince(t0) < seconds || ratios.size() < 5) &&
         tracer().room(2);
         ++b) {
        double tw, t1;
        if (b % 2) {
            tw = batch(sWide, wide, b);
            t1 = batch(sOne, one, b);
        } else {
            t1 = batch(sOne, one, b);
            tw = batch(sWide, wide, b);
        }
        ratios.push_back(t1 / tw);
    }
    rep.phase("scaling.detectBatch", checked, bad);
    const Summary s = summarize(ratios);
    Report::timing("core.scaling_x (ratio)", s, "x");
    rep.metric("core.scaling_x", s.p50, "x");
}

void
runTraceOverhead(World &w, double seconds, Report &rep)
{
    core::DetectorSession sess(*w.model);
    Walker walk(*w.model);
    const std::size_t n = w.inputs.size();
    core::Decision d;
    std::uint64_t bad = 0, checked = 0;
    std::vector<double> ratios;
    const auto t0 = Clock::now();
    for (std::size_t k = 0;
         (secondsSince(t0) < seconds || ratios.size() < 20) &&
         tracer().room(walk.spansPerDetect());
         ++k) {
        const std::size_t i = k % n;
        double plain = 0, traced = 0;
        for (int side = 0; side < 2; ++side) {
            const bool doTraced = (side == 0) == (k % 2 == 0);
            const auto t = Clock::now();
            if (doTraced)
                walk.detect(w.inputs[i], static_cast<std::uint32_t>(k), d);
            else
                d = sess.detect(w.inputs[i]);
            (doTraced ? traced : plain) = microsSince(t);
            bad += sameDecision(d, w.reference[i]) ? 0 : 1;
            ++checked;
        }
        ratios.push_back(traced / plain);
    }
    rep.phase("trace.overhead", checked, bad);
    const Summary s = summarize(ratios);
    Report::timing("traced/plain detect", s, "x");
    rep.metric("trace.overhead_frac", s.p50 - 1.0, "1");
}

} // namespace perfbench
