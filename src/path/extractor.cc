#include "extractor.hh"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "nn/psum_kernels.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace ptolemy::path
{

namespace
{

/** Total order for partial-sum ranking: value descending, input index
 *  ascending on ties. A total order (rather than value-only) makes the
 *  heap-prefix and full-sort selection strategies pick identical sets
 *  even when equal values straddle the theta cut. */
inline bool
rankedBefore(const nn::PartialSum &a, const nn::PartialSum &b)
{
    if (a.value != b.value)
        return a.value > b.value;
    return a.inputIndex < b.inputIndex;
}

/** make_heap/pop_heap comparator: "less" = ranked after. */
inline bool
heapLess(const nn::PartialSum &a, const nn::PartialSum &b)
{
    return rankedBefore(b, a);
}

/** Array position of the rankedBefore-first entry of p[0, n). Pure
 *  comparisons under the same total order as the sort/heap paths, so
 *  all selection strategies pick identical elements. Branchless
 *  (conditional moves; AVX2 max / min-index / locate passes from 8
 *  elements up), where a heap walk mispredicts on essentially every
 *  random float comparison. */
inline std::size_t
argmaxRanked(const nn::PartialSum *p, std::size_t n)
{
#ifdef PTOLEMY_HAVE_AVX2
    if (n >= 8 && simdMode() == SimdMode::Avx2)
        return nn::detail::avx2ArgmaxRanked(p, n);
#endif
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
        const bool better = rankedBefore(p[i], p[best]);
        best = better ? i : best;
    }
    return best;
}

/** Selection prefixes are typically a handful of elements, so a few
 *  successive argmax scans beat heapifying the whole receptive field;
 *  past this many passes the remainder falls back to the heap so a
 *  pathological wide prefix stays O(n + k log n). The constant lives in
 *  trace.hh so the compiler can mirror it in static trip counts. */
constexpr int kMaxScanPasses = kMaxSelectScanPasses;

/** Phase stopwatch for traced extractions: lap(ns) adds the time since
 *  the previous lap to @p ns. A stopwatch built off never reads the
 *  clock, so untraced extraction times nothing. */
class Stopwatch
{
  public:
    explicit Stopwatch(bool on) : enabled(on)
    {
        if (enabled)
            last = Clock::now();
    }

    void
    lap(std::uint64_t &ns)
    {
        if (!enabled)
            return;
        const auto now = Clock::now();
        ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - last)
                .count());
        last = now;
    }

  private:
    using Clock = std::chrono::steady_clock;
    bool enabled;
    Clock::time_point last;
};

} // namespace

PathExtractor::PathExtractor(const nn::Network &net_ref,
                             ExtractionConfig config)
    : net(&net_ref), cfg(std::move(config)), lay(net_ref, cfg),
      weightedIndexOfNode(net_ref.numNodes(), -1)
{
    const auto &weighted = net->weightedNodes();
    assert(cfg.numLayers() == static_cast<int>(weighted.size()));
    for (int w = 0; w < static_cast<int>(weighted.size()); ++w)
        weightedIndexOfNode[weighted[w]] = w;
}

BitVector
PathExtractor::extract(const nn::Network::Record &rec,
                       ExtractionTrace *trace) const
{
    ExtractionWorkspace ws;
    return extract(rec, ws, trace);
}

BitVector
PathExtractor::extract(const nn::Network::Record &rec,
                       ExtractionWorkspace &ws, ExtractionTrace *trace) const
{
    BitVector bits;
    extractInto(rec, ws, bits, trace);
    return bits;
}

void
PathExtractor::extractInto(const nn::Network::Record &rec,
                           ExtractionWorkspace &ws, BitVector &bits,
                           ExtractionTrace *trace) const
{
    if (bits.size() != lay.totalBits())
        bits = BitVector(lay.totalBits());
    else
        bits.reset();
    if (trace) {
        trace->direction = cfg.direction;
        trace->layers.clear();
        trace->totalMacs = networkMacs(*net);
    }
    if (cfg.direction == Direction::Backward)
        extractBackward(rec, ws, bits, trace);
    else
        extractForward(rec, ws, bits, trace);
    if (trace)
        trace->pathBits = bits.popcount();
}

ExtractionTrace
PathExtractor::profileBatch(const std::vector<nn::Network::Record> &recs,
                            ThreadPool *pool,
                            std::vector<BitVector> *paths) const
{
    std::vector<BitVector> local;
    std::vector<BitVector> &out = paths ? *paths : local;
    out.resize(recs.size());
    std::vector<ExtractionTrace> traces(recs.size());
    SlotTable<ExtractionWorkspace> ws;
    ws.growTo(pool ? pool->size() : 1);
    // extractInto only mutates its workspace, output path and trace;
    // the extractor, layout and records are read-only, and per-sample
    // outputs are indexed by i, so the result is independent of pool
    // scheduling.
    auto one = [&](std::size_t i, unsigned tid) {
        extractInto(recs[i], ws[tid], out[i], &traces[i]);
    };
    if (pool)
        pool->parallelForWithTid(recs.size(), one);
    else
        for (std::size_t i = 0; i < recs.size(); ++i)
            one(i, 0);
    return averageTraces(traces);
}

void
PathExtractor::selectImportantInputs(float out_val,
                                     const LayerPolicy &policy,
                                     ExtractionWorkspace &ws) const
{
    auto &scratch = ws.scratch;
    auto &selected = ws.selected;
    selected.clear();
    if (scratch.empty())
        return;

    if (policy.kind == ThresholdKind::Absolute) {
        for (const auto &ps : scratch)
            if (ps.value >= policy.phi)
                selected.push_back(ps.inputIndex);
        return;
    }

    // Cumulative: rank partial sums, take the minimal prefix whose sum
    // reaches theta * output. A non-positive output has no meaningful
    // coverage target; keep the single largest contributor (minimal set).
    if (out_val <= 0.0f) {
        selected.push_back(
            scratch[argmaxRanked(scratch.data(), scratch.size())]
                .inputIndex);
        return;
    }
    const double target = policy.theta * out_val;
    if (ws.referenceSort) {
        std::sort(scratch.begin(), scratch.end(), rankedBefore);
        double cum = 0.0;
        for (const auto &ps : scratch) {
            selected.push_back(ps.inputIndex);
            cum += ps.value;
            if (cum >= target)
                break;
        }
        return;
    }
    // Successive argmax scans: each pass swaps the ranked-next element
    // to the front of the unselected region, so elements are emitted —
    // and cum accumulated — in exactly the reference sort's order.
    const std::size_t n = scratch.size();
    std::size_t head = 0;
    double cum = 0.0;
    for (int pass = 0; pass < kMaxScanPasses && head < n; ++pass) {
        const std::size_t best =
            head + argmaxRanked(scratch.data() + head, n - head);
        std::swap(scratch[head], scratch[best]);
        selected.push_back(scratch[head].inputIndex);
        cum += scratch[head].value;
        ++head;
        if (cum >= target)
            return;
    }
    // Wide prefix: heapify the remaining elements and pop until
    // coverage (n + k log n worst case). The heap pops continue the
    // same ranked order, so the selection stays identical.
    std::make_heap(scratch.begin() + static_cast<std::ptrdiff_t>(head),
                   scratch.end(), heapLess);
    auto end = scratch.end();
    const auto heap_begin =
        scratch.begin() + static_cast<std::ptrdiff_t>(head);
    while (end != heap_begin) {
        std::pop_heap(heap_begin, end, heapLess);
        --end;
        selected.push_back(end->inputIndex);
        cum += end->value;
        if (cum >= target)
            break;
    }
}

void
PathExtractor::extractBackward(const nn::Network::Record &rec,
                               ExtractionWorkspace &ws, BitVector &bits,
                               ExtractionTrace *trace) const
{
    const int n_nodes = net->numNodes();
    // Important output-element sets per node, deduplicated via flags.
    // The flag arrays persist in the workspace; only the bits dirtied by
    // the previous extraction are cleared, keeping reuse O(path size).
    if (ws.important.size() != static_cast<std::size_t>(n_nodes)) {
        // Workspace last served a different network: start clean so the
        // sparse-clear loop below never indexes stale node ids.
        ws.important.assign(n_nodes, {});
        ws.seen.assign(n_nodes, {});
        ws.touched.clear();
    }
    for (int id : ws.touched) {
        for (std::size_t idx : ws.important[id])
            ws.seen[id][idx] = 0;
        ws.important[id].clear();
    }
    ws.touched.clear();

    auto mark = [&](int node_id, std::size_t idx) {
        if (node_id < 0)
            return; // reached the network input
        auto &flags = ws.seen[node_id];
        if (flags.size() != rec.outputs[node_id].size())
            flags.assign(rec.outputs[node_id].size(), 0);
        if (!flags[idx]) {
            if (ws.important[node_id].empty())
                ws.touched.push_back(node_id);
            flags[idx] = 1;
            ws.important[node_id].push_back(idx);
        }
    };

    // Seed: the predicted class neuron of the last layer (paper Sec. III-A).
    mark(n_nodes - 1, rec.predictedClass());

    for (int id = n_nodes - 1; id >= 0; --id) {
        if (ws.important[id].empty())
            continue;
        const auto &node = net->node(id);
        const int w = weightedIndexOfNode[id];

        if (w >= 0) {
            const LayerPolicy &policy = cfg.layers[w];
            if (!policy.extract)
                continue; // early termination: stop below this layer
            const int in_id = node.inputs[0];
            const nn::Tensor &input =
                in_id < 0 ? rec.input : rec.outputs[in_id];
            const auto *seg = lay.segmentForWeighted(w);

            LayerTrace lt;
            lt.weightedIndex = w;
            lt.nodeId = id;
            lt.kind = policy.kind;
            lt.inputFmapSize = input.size();
            lt.outputFmapSize = rec.outputs[id].size();
            lt.rfSize = node.layer->receptiveFieldSize();
            lt.macs = weightedLayerMacs(*net, id);
            lt.importantOut = ws.important[id].size();

            Stopwatch sw(trace != nullptr);
            for (std::size_t o : ws.important[id]) {
                node.layer->partialSums(input, o, ws.scratch);
                sw.lap(lt.psumNs);
                selectImportantInputs(rec.outputs[id][o], policy, ws);
                sw.lap(lt.selectNs);
                lt.psumsConsidered += ws.scratch.size();
                if (policy.kind == ThresholdKind::Cumulative) {
                    lt.sortedElems += ws.scratch.size();
                    // Selection shape: the scan path emits exactly one
                    // element per pass, so the pass/pop counts follow
                    // from the selected prefix length (identical for
                    // the reference-sort strategy, which picks the same
                    // set).
                    const std::size_t k = ws.selected.size();
                    lt.selectScanPasses += std::min<std::size_t>(
                        k, static_cast<std::size_t>(kMaxScanPasses));
                    if (k > static_cast<std::size_t>(kMaxScanPasses)) {
                        ++lt.heapFallbackNeurons;
                        lt.heapPops += k - kMaxScanPasses;
                    }
                } else {
                    lt.thresholdCmps += ws.scratch.size();
                }
                for (std::size_t in_idx : ws.selected) {
                    if (!bits.test(seg->bitOffset + in_idx)) {
                        bits.set(seg->bitOffset + in_idx);
                        ++lt.importantIn;
                    }
                    mark(in_id, in_idx);
                }
                sw.lap(lt.markNs);
            }
            // Absolute variants store one single-bit mask per partial sum
            // during inference (paper Sec. III-C); cumulative variants
            // store the partial sums themselves (costed by the hw model).
            lt.masksWritten =
                policy.kind == ThresholdKind::Absolute ? lt.macs : 0;
            if (trace)
                trace->layers.push_back(lt);
        } else {
            // Route importance through the non-weighted layer.
            auto &ins = ws.insScratch;
            ins.clear();
            for (int in_id : node.inputs)
                ins.push_back(in_id < 0 ? &rec.input
                                        : &rec.outputs[in_id]);
            node.layer->backmapImportant(ins, rec.outputs[id],
                                         ws.important[id], ws.perInput);
            for (std::size_t slot = 0; slot < node.inputs.size(); ++slot)
                for (std::size_t idx : ws.perInput[slot])
                    mark(node.inputs[slot], idx);
        }
    }
    if (trace)
        std::reverse(trace->layers.begin(), trace->layers.end());
}

void
PathExtractor::extractForward(const nn::Network::Record &rec,
                              ExtractionWorkspace &ws, BitVector &bits,
                              ExtractionTrace *trace) const
{
    const auto &weighted = net->weightedNodes();
    auto &order = ws.order; // ranked indices of extracted elements

    for (int w = 0; w < cfg.numLayers(); ++w) {
        const LayerPolicy &policy = cfg.layers[w];
        if (!policy.extract)
            continue;
        const int id = weighted[w];
        const auto &node = net->node(id);
        const int in_id = node.inputs[0];
        const nn::Tensor &input = in_id < 0 ? rec.input
                                            : rec.outputs[in_id];
        const auto *seg = lay.segmentForWeighted(w);

        LayerTrace lt;
        lt.weightedIndex = w;
        lt.nodeId = id;
        lt.kind = policy.kind;
        lt.inputFmapSize = input.size();
        lt.outputFmapSize = rec.outputs[id].size();
        lt.rfSize = node.layer->receptiveFieldSize();
        lt.macs = weightedLayerMacs(*net, id);
        lt.importantOut = 0; // forward mode is not driven by outputs
        Stopwatch sw(trace != nullptr);

        if (policy.kind == ThresholdKind::Absolute) {
            // Threshold the freshly produced feature map; the single-bit
            // masks are generated during inference (paper Sec. III-C).
            lt.thresholdCmps = input.size();
            lt.masksWritten = input.size();
            for (std::size_t i = 0; i < input.size(); ++i) {
                if (input[i] >= policy.phi) {
                    bits.set(seg->bitOffset + i);
                    ++lt.importantIn;
                }
            }
        } else {
            // Forward cumulative (paper Fig. 6, last layer): rank the
            // feature-map elements and keep the minimal prefix covering
            // theta of the total activation mass.
            const auto idx_ranked_before = [&](std::size_t a,
                                               std::size_t b) {
                if (input[a] != input[b])
                    return input[a] > input[b];
                return a < b;
            };
            const auto idx_heap_less = [&](std::size_t a, std::size_t b) {
                return idx_ranked_before(b, a);
            };
            order.resize(input.size());
            for (std::size_t i = 0; i < input.size(); ++i)
                order[i] = i;
            double total = 0.0;
            for (std::size_t i = 0; i < input.size(); ++i)
                total += std::max(0.0f, input[i]);
            const double target = policy.theta * total;
            lt.sortedElems = input.size();
            double cum = 0.0;
            if (ws.referenceSort) {
                std::sort(order.begin(), order.end(), idx_ranked_before);
                for (std::size_t i : order) {
                    bits.set(seg->bitOffset + i);
                    ++lt.importantIn;
                    cum += std::max(0.0f, input[i]);
                    if (cum >= target)
                        break;
                }
            } else {
                std::make_heap(order.begin(), order.end(), idx_heap_less);
                auto end = order.end();
                while (end != order.begin()) {
                    std::pop_heap(order.begin(), end, idx_heap_less);
                    --end;
                    bits.set(seg->bitOffset + *end);
                    ++lt.importantIn;
                    cum += std::max(0.0f, input[*end]);
                    if (cum >= target)
                        break;
                }
            }
            // Forward cumulative ranks the whole feature map in one
            // heapified pass (one "neuron", importantIn pops) — the
            // ranked-prefix scan rewrite applies to the backward
            // per-neuron receptive fields only.
            lt.heapFallbackNeurons = 1;
            lt.heapPops = lt.importantIn;
        }
        sw.lap(lt.selectNs);
        if (trace)
            trace->layers.push_back(lt);
    }
}

void
calibrateAbsoluteThresholds(nn::Network &net, ExtractionConfig &cfg,
                            const std::vector<nn::Tensor> &samples,
                            double target_fraction)
{
    const auto &weighted = net.weightedNodes();
    std::vector<std::vector<float>> pools(cfg.numLayers());
    Rng rng(0xCA11B8A7Eull);
    std::vector<nn::PartialSum> scratch;

    // Record the calibration samples in pool-parallel chunks (bounded
    // memory: a Record holds every intermediate feature map); the
    // pooling below keeps the original serial order, so thresholds are
    // identical to the one-at-a-time loop.
    ThreadPool &tp = globalPool();
    const std::size_t chunk = std::max<std::size_t>(8, 4 * tp.size());
    std::vector<nn::Tensor> xsChunk;
    std::vector<nn::Network::Record> recs;
    for (std::size_t base = 0; base < samples.size(); base += chunk) {
        const std::size_t n = std::min(chunk, samples.size() - base);
        xsChunk.assign(
            samples.begin() + static_cast<std::ptrdiff_t>(base),
            samples.begin() + static_cast<std::ptrdiff_t>(base + n));
        net.forwardBatch(xsChunk, recs, &tp);

        for (std::size_t r = 0; r < n; ++r) {
            const auto &rec = recs[r];
            for (int w = 0; w < cfg.numLayers(); ++w) {
                if (!cfg.layers[w].extract ||
                    cfg.layers[w].kind != ThresholdKind::Absolute)
                    continue;
                const int id = weighted[w];
                const auto &node = net.node(id);
                const int in_id = node.inputs[0];
                const nn::Tensor &input = in_id < 0 ? rec.input
                                                    : rec.outputs[in_id];
                if (cfg.direction == Direction::Forward) {
                    for (std::size_t i = 0; i < input.size(); ++i)
                        pools[w].push_back(input[i]);
                } else {
                    // Sample a few output neurons' partial sums.
                    const std::size_t n_out = rec.outputs[id].size();
                    const std::size_t n_probe =
                        std::min<std::size_t>(32, n_out);
                    for (std::size_t p = 0; p < n_probe; ++p) {
                        const std::size_t o = rng.below(n_out);
                        net.layerAt(id).partialSums(input, o, scratch);
                        for (const auto &ps : scratch)
                            pools[w].push_back(ps.value);
                    }
                }
            }
        }
    }

    for (int w = 0; w < cfg.numLayers(); ++w) {
        auto &pool = pools[w];
        if (pool.empty())
            continue;
        const std::size_t k = static_cast<std::size_t>(
            (1.0 - target_fraction) * (pool.size() - 1));
        std::nth_element(pool.begin(),
                         pool.begin() + static_cast<std::ptrdiff_t>(k),
                         pool.end());
        cfg.layers[w].phi = pool[k];
    }
}

} // namespace ptolemy::path
