/**
 * @file
 * SGD trainer with momentum and step decay — data-parallel within each
 * mini-batch.
 *
 * Samples of a batch fan out over the process-wide ThreadPool via
 * parallelForWithTid: each pool slot runs forward+backward with its own
 * Network::Record and GradArena, and gradients accumulate into a fixed
 * number of per-lane parameter-gradient clones (lane = sample position
 * mod laneCount, independent of the thread count). Lanes are reduced
 * into the optimizer state in lane order and deferred layer-state
 * updates (Norm running stats) are folded in sample order, so trained
 * weights are bit-identical across PTOLEMY_NUM_THREADS — the same
 * determinism contract the tile-parallel SGEMM honors.
 */

#ifndef PTOLEMY_NN_TRAINER_HH
#define PTOLEMY_NN_TRAINER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/loss.hh"
#include "nn/network.hh"
#include "nn/tensor.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{

/** A labelled sample. */
struct Sample
{
    Tensor input;
    std::size_t label;
};

/** Labelled dataset — a plain vector with helpers lives in src/data. */
using Dataset = std::vector<Sample>;

/** Trainer hyper-parameters. */
struct TrainConfig
{
    double learningRate = 0.05;
    double momentum = 0.9;
    double weightDecay = 1e-4;
    int epochs = 6;
    int batchSize = 16;
    double lrDecay = 0.5;    ///< multiplied in every lrDecayEvery epochs
    int lrDecayEvery = 2;
    std::uint64_t shuffleSeed = 7;
    bool verbose = false;
    /** Pool the batch fans out on; nullptr = the process-wide
     *  globalPool(). Results do not depend on the pool's size. */
    ThreadPool *pool = nullptr;
};

/** One epoch's summary. */
struct EpochStats
{
    double avgLoss;
    double trainAccuracy;
};

/**
 * Mini-batch SGD with momentum: per-sample gradients are computed in
 * parallel, accumulated over batchSize samples through deterministic
 * gradient lanes, then a single parameter step is applied.
 */
class Trainer
{
  public:
    /** Gradient lanes per batch — fixed (never derived from the thread
     *  count) so the reduction order, and therefore the trained
     *  weights, are identical no matter how many threads run. */
    static constexpr std::size_t kMaxGradLanes = 16;

    explicit Trainer(TrainConfig cfg = {}) : config(cfg) {}

    /** Train in place; returns per-epoch stats. */
    std::vector<EpochStats> train(Network &net, const Dataset &data);

    /**
     * As train(), writing the stats into a caller-owned vector. With a
     * warmed-up Trainer (scratch persists across calls) the steady-state
     * training loop performs no heap allocation — perf_smoke asserts
     * this.
     */
    void trainInto(Network &net, const Dataset &data,
                   std::vector<EpochStats> &history);

    /** Top-1 accuracy over @p data. */
    static double evaluate(Network &net, const Dataset &data);

  private:
    /** Per-pool-slot pass scratch (record + arena + loss). */
    struct Slot
    {
        Network::Record rec;
        Network::GradArena arena;
        LossGrad lg;
    };

    /** Per-lane deterministic accumulators. */
    struct Lane
    {
        std::vector<std::vector<float>> paramGrads; ///< flatParams order
        std::vector<float> trainState; ///< deferred stats, per sample slot
        double lossSum = 0.0;
        std::size_t correct = 0;
    };

    TrainConfig config;
    std::vector<std::vector<float>> velocity; ///< per-parameter momentum
    // Persistent scratch: reused across train() calls so repeated
    // training (and the perf harness) allocates only on first use.
    SlotTable<Slot> slots;
    std::vector<Lane> lanes;
    std::vector<std::size_t> order;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_TRAINER_HH
