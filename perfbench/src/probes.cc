// Exact per-layer counts (extraction ops, hw cycles) and the telemetry
// ingest/seal probe, all through the library's public calls.

#include "compiler/compiler.hh"
#include "phases.hh"
#include "hw/simulator.hh"
#include "path/trace.hh"
#include "telemetry/hub.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kHwProfileInputs = 64;
constexpr std::size_t kTelemetryWindows = 64;

} // namespace

void
probePathCounts(World &w, Report &rep)
{
    const core::DetectorModel &m = *w.model;
    nn::Network::Record rec;
    path::ExtractionWorkspace ws;
    BitVector bits;
    double psums = 0, passes = 0, pops = 0, pathBits = 0;
    for (const auto &x : w.inputs) {
        path::ExtractionTrace tr;
        m.network().inferInto(x, rec);
        m.extractor().extractInto(rec, ws, bits, &tr);
        psums += static_cast<double>(
            tr.sum([](const path::LayerTrace &l) { return l.psumsConsidered; }));
        passes += static_cast<double>(
            tr.sum([](const path::LayerTrace &l) { return l.selectScanPasses; }));
        pops += static_cast<double>(
            tr.sum([](const path::LayerTrace &l) { return l.heapPops; }));
        pathBits += static_cast<double>(tr.pathBits);
    }
    const double n = static_cast<double>(w.inputs.size());
    std::printf("path counts per detection over %zu inputs: psums %.2f "
                "scan_passes %.2f heap_pops %.2f path_bits %.2f\n",
                w.inputs.size(), psums / n, passes / n, pops / n,
                pathBits / n);
    rep.metric("path.psums", psums / n, "count");
    rep.metric("path.scan_passes", passes / n, "count");
    rep.metric("path.heap_pops", pops / n, "count");
    rep.metric("path.path_bits", pathBits / n, "count");
}

void
probeTelemetry(World &w, Report &rep)
{
    const core::DetectorModel &m = *w.model;
    // The workload's real path bits, one per seeded input.
    std::vector<BitVector> paths(w.inputs.size());
    nn::Network::Record rec;
    path::ExtractionWorkspace ws;
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        m.network().inferInto(w.inputs[i], rec);
        m.extractor().extractInto(rec, ws, paths[i]);
    }
    telemetry::TelemetryConfig tc;
    tc.numClasses = m.numClasses();
    tc.slots = 1;
    telemetry::TelemetryHub hub(tc);
    const std::size_t records = kTelemetryWindows * tc.windowRecords;
    std::vector<double> ingestNs, sealUs;
    ingestNs.reserve(records);
    sealUs.reserve(kTelemetryWindows);
    for (std::size_t k = 0; k < records && tracer().room(2); ++k) {
        const std::size_t i = k % paths.size();
        const core::Decision &d = w.reference[i];
        auto s = Clock::now();
        {
            Scope span(kSpanIngest, static_cast<std::uint32_t>(k));
            hub.ingest(0, d.score, d.predictedClass, d.adversarial,
                       1.0 - d.features.overall, &paths[i]);
        }
        ingestNs.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - s)
                .count());
        if (hub.pendingRecords() >= tc.windowRecords) {
            s = Clock::now();
            {
                Scope span(kSpanSeal, static_cast<std::uint32_t>(k));
                hub.sealWindow();
            }
            sealUs.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - s)
                    .count());
        }
    }
    const Summary si = summarize(ingestNs), ss = summarize(sealUs);
    Report::timing("telemetry.ingest", si, "ns");
    Report::timing("telemetry.seal", ss, "us");
    rep.metric("telemetry.ingest_ns", si.p50, "ns");
    rep.metric("telemetry.seal_us", ss.p50, "us");
}

void
probeHw(World &w, Report &rep)
{
    const core::DetectorModel &m = *w.model;
    const std::size_t n = std::min(kHwProfileInputs, w.inputs.size());
    std::vector<nn::Network::Record> recs(n);
    for (std::size_t i = 0; i < n; ++i)
        m.network().inferInto(w.inputs[i], recs[i]);
    const path::ExtractionTrace trace = m.extractor().profileBatch(recs);
    hw::Simulator sim;
    isa::Program prog;
    {
        Scope span(kSpanCompile, 0);
        prog = compiler::Compiler(m.network(), m.config()).compile(trace);
    }
    hw::PerfReport detect, infer;
    {
        Scope span(kSpanSimulate, 0);
        detect = sim.run(prog);
    }
    {
        Scope span(kSpanSimulate, 1);
        infer = sim.run(compiler::Compiler::inferenceOnly(m.network()));
    }
    std::printf("hw cycles over %zu profiled inputs: inference %llu "
                "detect %llu\n",
                n, static_cast<unsigned long long>(infer.cycles),
                static_cast<unsigned long long>(detect.cycles));
    rep.metric("hw.inference_cycles", static_cast<double>(infer.cycles),
               "cycles");
    rep.metric("hw.detect_cycles", static_cast<double>(detect.cycles),
               "cycles");
    rep.metric("hw.overhead_x",
               static_cast<double>(detect.cycles) /
                   static_cast<double>(infer.cycles),
               "x");
}

} // namespace perfbench
