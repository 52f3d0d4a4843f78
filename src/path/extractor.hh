/**
 * @file
 * Activation-path extraction (paper Sec. III-A/III-C, Fig. 3).
 *
 * Backward extraction starts from the predicted class neuron in the last
 * layer and walks the data graph toward the input: for every important
 * output neuron of a weighted layer, the partial sums in its receptive
 * field are ranked (cumulative θ) or compared against a constant
 * (absolute φ) to pick the important input neurons; those propagate
 * through non-weighted layers (ReLU, pools, residual adds, concats) via
 * each layer's index back-mapping.
 *
 * Forward extraction thresholds each extracted layer's input feature map
 * as soon as it is produced, which the compiler can overlap with the next
 * layer's inference (paper Sec. IV-B).
 */

#ifndef PTOLEMY_PATH_EXTRACTOR_HH
#define PTOLEMY_PATH_EXTRACTOR_HH

#include <vector>

#include "nn/network.hh"
#include "path/extraction_config.hh"
#include "path/path_layout.hh"
#include "path/trace.hh"
#include "util/bitvector.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::path
{

/**
 * Reusable scratch for PathExtractor. One workspace per extraction
 * loop makes the steady state allocation-free: the per-node importance
 * lists, dedup flags, partial-sum scratch and selection buffers are all
 * grown once and reused, and the dedup flags are cleared sparsely (only
 * the bits set by the previous call) instead of reallocated.
 */
struct ExtractionWorkspace
{
    /** Selection strategy for cumulative-threshold layers. When true,
     *  fully sort every partial-sum list (the independent oracle
     *  hw::runFunctional uses). When false (default), run successive
     *  ranked-argmax passes, each moving the next-ranked element to the
     *  front of the row, and past kMaxSelectScanPasses heapify the rest
     *  and pop until theta coverage: O(k n) for the usual short prefix,
     *  O(n + k log n) for a wide one. Both rank by value with
     *  input-index tie-breaks, so the selected prefixes are identical,
     *  element for element and in order. */
    bool referenceSort = false;

    std::vector<std::vector<std::size_t>> important; ///< per node
    std::vector<std::vector<std::uint8_t>> seen;     ///< per-node flags
    std::vector<int> touched;              ///< nodes dirtied last call
    std::vector<nn::PartialSum> scratch;   ///< partial sums of one neuron
    std::vector<std::size_t> selected;     ///< selected input indices
    std::vector<std::size_t> order;        ///< forward-cumulative ranking
    std::vector<std::vector<std::size_t>> perInput; ///< backmap results, max fan-in entries
    std::vector<const nn::Tensor *> insScratch;     ///< backmap input views
};

/**
 * Extracts activation paths from recorded forward passes.
 */
class PathExtractor
{
  public:
    /**
     * @param net network the records come from (borrowed; must outlive
     *            the extractor).
     * @param cfg extraction configuration; must describe exactly the
     *            network's weighted layers.
     */
    PathExtractor(const nn::Network &net, ExtractionConfig cfg);

    const PathLayout &layout() const { return lay; }
    const ExtractionConfig &config() const { return cfg; }
    const nn::Network &network() const { return *net; }

    /**
     * Extract the activation path for one recorded inference.
     * Convenience form that allocates a fresh workspace per call; loops
     * should prefer the workspace overloads below.
     * @param rec recorded forward pass.
     * @param trace optional op-count trace for the compiler/hardware model.
     */
    BitVector extract(const nn::Network::Record &rec,
                      ExtractionTrace *trace = nullptr) const;

    /** Extract reusing @p ws across calls (no steady-state allocation
     *  besides the returned BitVector). */
    BitVector extract(const nn::Network::Record &rec,
                      ExtractionWorkspace &ws,
                      ExtractionTrace *trace = nullptr) const;

    /**
     * Fully allocation-free steady state: reuse both the workspace and
     * the output BitVector (@p bits is reset and resized on first use).
     */
    void extractInto(const nn::Network::Record &rec, ExtractionWorkspace &ws,
                     BitVector &bits, ExtractionTrace *trace = nullptr) const;

    /**
     * Batched profiling entry point: extract every record while tracing
     * it, fanned out on @p pool over one workspace per pool slot, and
     * return the element-wise averaged trace (the workload the compiler
     * consumes). The averaged trace is bit-identical to tracing the
     * records one at a time in order, at any pool size, and so is
     * (*paths)[i], the path of recs[i], when @p paths is given.
     */
    ExtractionTrace
    profileBatch(const std::vector<nn::Network::Record> &recs,
                 ThreadPool *pool = nullptr,
                 std::vector<BitVector> *paths = nullptr) const;

  private:
    void extractBackward(const nn::Network::Record &rec,
                         ExtractionWorkspace &ws, BitVector &bits,
                         ExtractionTrace *trace) const;
    void extractForward(const nn::Network::Record &rec,
                        ExtractionWorkspace &ws, BitVector &bits,
                        ExtractionTrace *trace) const;

    /** Pick the important inputs of one weighted output neuron, whose
     *  value is @p out_val and whose partial-sum row is in ws.scratch,
     *  into ws.selected. */
    void selectImportantInputs(float out_val, const LayerPolicy &policy,
                               ExtractionWorkspace &ws) const;

    const nn::Network *net;
    ExtractionConfig cfg;
    PathLayout lay;
    std::vector<int> weightedIndexOfNode; ///< node id -> weighted idx or -1
};

/**
 * Calibrate per-layer absolute thresholds phi so that roughly
 * @p target_fraction of the compared values pass, using a handful of
 * training samples. Backward-absolute layers calibrate on partial sums;
 * forward-absolute layers calibrate on input activations.
 *
 * Mirrors the paper's offline profiling step: phi "can be specified at
 * each layer" (Sec. III-C) and must match between the offline and online
 * phases.
 */
void calibrateAbsoluteThresholds(nn::Network &net, ExtractionConfig &cfg,
                                 const std::vector<nn::Tensor> &samples,
                                 double target_fraction);

} // namespace ptolemy::path

#endif // PTOLEMY_PATH_EXTRACTOR_HH
