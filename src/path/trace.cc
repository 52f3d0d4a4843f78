#include "trace.hh"

#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/network.hh"

namespace ptolemy::path
{

ExtractionTrace
averageTraces(const std::vector<ExtractionTrace> &traces)
{
    ExtractionTrace avg;
    if (traces.empty())
        return avg;
    avg = traces[0];
    const std::size_t n = traces.size();
    for (std::size_t t = 1; t < n; ++t) {
        avg.pathBits += traces[t].pathBits;
        for (std::size_t l = 0; l < avg.layers.size(); ++l) {
            auto &dst = avg.layers[l];
            const auto &src = traces[t].layers[l];
            dst.importantOut += src.importantOut;
            dst.psumsConsidered += src.psumsConsidered;
            dst.sortedElems += src.sortedElems;
            dst.thresholdCmps += src.thresholdCmps;
            dst.masksWritten += src.masksWritten;
            dst.importantIn += src.importantIn;
            dst.selectScanPasses += src.selectScanPasses;
            dst.heapFallbackNeurons += src.heapFallbackNeurons;
            dst.heapPops += src.heapPops;
            dst.psumNs += src.psumNs;
            dst.selectNs += src.selectNs;
            dst.markNs += src.markNs;
        }
    }
    avg.pathBits /= n;
    for (auto &lt : avg.layers) {
        lt.importantOut /= n;
        lt.psumsConsidered /= n;
        lt.sortedElems /= n;
        lt.thresholdCmps /= n;
        lt.masksWritten /= n;
        lt.importantIn /= n;
        lt.selectScanPasses /= n;
        lt.heapFallbackNeurons /= n;
        lt.heapPops /= n;
        lt.psumNs /= n;
        lt.selectNs /= n;
        lt.markNs /= n;
    }
    return avg;
}

std::size_t
weightedLayerMacs(const nn::Network &net, int node_id)
{
    const nn::Layer &layer = net.layerAt(node_id);
    const nn::Shape out = net.nodeOutputShape(node_id);
    if (layer.kind() == nn::LayerKind::Conv) {
        const auto &conv = static_cast<const nn::Conv2d &>(layer);
        return out.numel() * static_cast<std::size_t>(conv.inChannels()) *
               conv.kernel() * conv.kernel();
    }
    if (layer.kind() == nn::LayerKind::Linear) {
        const auto &lin = static_cast<const nn::Linear &>(layer);
        return static_cast<std::size_t>(lin.inFeatures()) *
               lin.outFeatures();
    }
    return 0;
}

std::size_t
networkMacs(const nn::Network &net)
{
    std::size_t total = 0;
    for (int id : net.weightedNodes())
        total += weightedLayerMacs(net, id);
    return total;
}

} // namespace ptolemy::path
