/**
 * @file
 * A workload's fixture: the deterministically trained network, the
 * fitted DetectorModel, the seeded inputs and their single-stream
 * reference Decisions.
 */

#ifndef PERFBENCH_FIXTURE_HH
#define PERFBENCH_FIXTURE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace perfbench
{

using namespace ptolemy;

struct World
{
    explicit World(const WorkloadSpec &spec) : spec(spec) {}

    const WorkloadSpec &spec;
    std::uint64_t seed = 0; ///< the run's --seed
    nn::Network net{"", nn::Shape{}};
    path::ExtractionConfig cfg;
    data::SplitDataset fixture;          ///< fixed-seed training split
    std::vector<nn::Tensor> fitClean;    ///< classifier-fit benign rows
    std::vector<nn::Tensor> fitAdv;      ///< classifier-fit BIM rows
    std::optional<core::DetectorModel> model;

    /** Seeded inputs: held-out clean samples, then the successful BIM
     *  adversarials of them (isAdv marks which). */
    std::vector<nn::Tensor> inputs;
    std::vector<int> isAdv;
    /** Single-stream detect() of every input, computed at set-up. */
    std::vector<core::Decision> reference;

    /** Pad allocations that shift later allocations (see relayout). */
    std::vector<std::unique_ptr<char[]>> pads;

    std::vector<double> setupSeconds; ///< one per timed set-up
    double trainSeconds = 0.0;
    double cleanAccuracy = 0.0;
};

/** Train the fixture net, make the seeded inputs, build the model and
 *  compute the reference Decisions. */
void buildWorld(World &w, std::uint64_t seed);

/** Timed set-up (one setupSeconds sample): replace w.model with a
 *  freshly built DetectorModel. The build is deterministic, so the new
 *  model must reproduce the reference Decisions. */
void buildModel(World &w);

/** Measurement epochs per timed phase (see relayout). */
inline constexpr std::size_t kLayoutEpochs = 16;

/**
 * Start a new layout epoch: drop and rebuild the network's packed
 * weights behind a pad allocation whose size depends on @p epoch
 * (with @p rebuild, through a whole timed buildModel). The input
 * copies move too, and the sessions a phase creates after this call
 * get their scratch at new addresses. A process otherwise measures one memory layout, and
 * on a 4-core VM that alone moved single-stream detect latency by
 * ~30% between runs of the same seed; sampling several layouts per run
 * averages it out. No session may be serving during the call.
 */
void relayout(World &w, std::size_t epoch, bool rebuild = false);

/** Bitwise equality of two Decisions (class, verdict, score and every
 *  similarity feature). */
bool sameDecision(const core::Decision &a, const core::Decision &b);

/** Detection AUC of the seeded clean inputs vs their BIM adversarials,
 *  scored through detectBatch on @p pool; every Decision is checked
 *  against the reference. */
double measureAuc(World &w, ThreadPool &pool, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_FIXTURE_HH
