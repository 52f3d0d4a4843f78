/**
 * @file
 * Adversarial attack interface, batched attack engine and distortion
 * metrics.
 *
 * The paper evaluates five non-adaptive attacks covering all three input
 * perturbation measures — BIM (L∞), CW-L2 (L2), DeepFool (L2), FGSM (L∞),
 * JSMA (L0) — plus an adaptive activation-matching attack (Sec. VII-E).
 * Every attack here perturbs a clean, correctly-classified input into one
 * the model mispredicts, while this library's detector tries to flag it.
 *
 * Attacks are batched: the primary entry point is Attack::runBatch,
 * which drives whole candidate batches through the network's
 * record-based forward/backward surface concurrently (layers are
 * stateless across passes, so many samples can share one network).
 * The determinism contract, which core::evaluateSuite relies on, is:
 *
 *   The adversarial produced for a sample depends only on the attack's
 *   parameters, the input, the label, and the sample's global index
 *   (index_base + position). It never depends on batch composition,
 *   batch order, chunk size or thread count — serial run() calls, one
 *   64-sample runBatch, and a pool-parallel runBatch all produce
 *   bit-identical results.
 *
 * Randomized attacks (PGD's random start, the adaptive attack's target
 * sampling) uphold the contract by re-keying their RNG from
 * (seed, sampleIndex) via sampleKey() instead of sharing a stream
 * across samples.
 */

#ifndef PTOLEMY_ATTACK_ATTACK_HH
#define PTOLEMY_ATTACK_ATTACK_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/loss.hh"
#include "nn/network.hh"
#include "nn/tensor.hh"
#include "util/thread_pool.hh"

namespace ptolemy::attack
{

/** Outcome of one attack attempt. */
struct AttackResult
{
    nn::Tensor adversarial; ///< perturbed input, clipped to [0,1]
    bool success = false;   ///< model prediction changed away from truth
    double mse = 0.0;       ///< mean-squared distortion vs the clean input
    int iterations = 0;     ///< optimizer iterations consumed
};

/** Shared perturbation budget knobs. */
struct AttackBudget
{
    double epsilon = 0.08;  ///< L∞ ball radius (where applicable)
    double stepSize = 0.01; ///< per-iteration step
    int maxIters = 40;
};

/**
 * Per-slot forward/backward scratch for the batched attack engine.
 *
 * One Slot per thread-pool slot; every buffer is reused across
 * iterations and across runBatch calls, so a warmed-up attack batch
 * loop performs no heap allocation. Slots are pure scratch: results
 * are always keyed by sample index, never by the executing slot, which
 * is what keeps batched attacks bit-identical across thread counts.
 */
struct AttackScratch
{
    struct Slot
    {
        nn::Network::Record rec;    ///< primary forward record
        nn::Network::Record auxRec; ///< secondary record (target passes)
        nn::Network::GradArena arena; ///< forward/backward scratch
        nn::LossGrad lossGrad;      ///< cross-entropy loss scratch
        nn::Tensor logitSeed;       ///< logit-space backward seed
        nn::Tensor grad;            ///< input-gradient working copy
        nn::Tensor adv;             ///< per-sample working input
        nn::Tensor best;            ///< best-so-far candidate
        std::vector<std::pair<int, nn::Tensor>> nodeSeeds; ///< backwardMulti
        std::vector<nn::Tensor> acts;    ///< activation-target scratch
        std::vector<std::size_t> idx;    ///< index-ordering scratch
        std::vector<std::uint8_t> flags; ///< per-element marks
    };

    SlotTable<Slot> slots;

    /**
     * Size the slot table for @p pool and warm the network's parameter
     * index so concurrent backward passes never race on building it.
     * Never shrinks (warmed buffers are kept).
     */
    void prepare(nn::Network &net, ThreadPool &pool);
};

/**
 * Abstract attack.
 *
 * Implementations are stateful (they own reusable batch scratch), so a
 * single Attack instance must not be driven from two threads at once;
 * the parallelism lives inside runBatch, on the attack's pool.
 */
class Attack
{
  public:
    virtual ~Attack() = default;

    /** Short name matching the paper ("FGSM", "BIM", ...). */
    virtual std::string name() const = 0;

    /**
     * Attack @p net on every input of a batch.
     *
     * @param xs batch inputs (borrowed; one pointer per sample).
     * @param labels true class per sample (same length as @p xs).
     * @param results one AttackResult per sample (same length as
     *        @p xs); existing tensor buffers are reused, so passing a
     *        persistent vector keeps repeated batches allocation-free.
     * @param index_base global index of xs[0]; sample i has index
     *        index_base + i. Randomized attacks key their RNG from it
     *        (see sampleKey), making results independent of how a
     *        stream of samples is chunked into batches.
     *
     * The network's member scratch is clobbered (forward/backward
     * passes); the network's weights are never modified.
     */
    virtual void runBatch(nn::Network &net,
                          std::span<const nn::Tensor *const> xs,
                          std::span<const std::size_t> labels,
                          std::span<AttackResult> results,
                          std::uint64_t index_base = 0) = 0;

    /**
     * One-sample convenience wrapper over runBatch.
     * @param sample_index the sample's global index (see runBatch);
     *        calling run for i = 0..n-1 with sample_index = i is
     *        bit-identical to one runBatch over the same samples.
     */
    AttackResult run(nn::Network &net, const nn::Tensor &x,
                     std::size_t label, std::uint64_t sample_index = 0);

    /**
     * Pool the batch engine fans out on; nullptr (the default) means
     * the process-wide globalPool(). Results are bit-identical for any
     * pool size — this knob exists for throughput control and for
     * determinism tests that pin explicit thread counts.
     */
    void setPool(ThreadPool *pool) { poolOverride = pool; }

  protected:
    /** Resolved pool for this attack (override or globalPool()). */
    ThreadPool &pool() const;

  private:
    ThreadPool *poolOverride = nullptr;
};

/** Mean squared error between two same-shaped tensors. */
double mseDistortion(const nn::Tensor &a, const nn::Tensor &b);

/** L∞ distance. */
double linfDistortion(const nn::Tensor &a, const nn::Tensor &b);

/** Count of changed elements (L0); differences strictly above
 *  @p tol count as changed. */
std::size_t l0Distortion(const nn::Tensor &a, const nn::Tensor &b,
                         double tol = 1e-6);

/** L2 distance. */
double l2Distortion(const nn::Tensor &a, const nn::Tensor &b);

/**
 * Deterministic per-sample RNG key: mixes an attack seed with a global
 * sample index (SplitMix64 finalizer). Randomized attacks seed one Rng
 * per sample from this, so serial, batched and multi-threaded runs all
 * draw identical noise for a given sample index.
 */
std::uint64_t sampleKey(std::uint64_t seed, std::uint64_t sample_index);

/**
 * dLoss/dInput of the cross-entropy loss at (@p x, @p label).
 * Clobbers the network's layer state. @p loss_out receives the loss.
 */
nn::Tensor lossInputGradient(nn::Network &net, const nn::Tensor &x,
                             std::size_t label, double *loss_out = nullptr);

/**
 * As lossInputGradient, but writing into a caller-owned tensor so
 * iterative attacks stay allocation-free across iterations.
 */
void lossInputGradientInto(nn::Network &net, const nn::Tensor &x,
                           std::size_t label, nn::Tensor &grad,
                           double *loss_out = nullptr);

/**
 * Batched dLoss/dInput of the cross-entropy loss: for every active
 * sample i, forward xs[i] through @p net (record-based, one pool slot
 * per concurrent pass) and back-propagate softmax-CE at labels[i] into
 * grads[i]. The per-sample forward record serves both the prediction
 * check and the backward pass, so one batched iteration costs one
 * forward + one backward — the sample-serial attack loop paid an extra
 * prediction forward per iteration.
 *
 * @param xs batch inputs (borrowed).
 * @param labels true class per sample.
 * @param grads per-sample gradient destinations (buffers reused).
 * @param scratch per-slot scratch; prepare()d for @p pool on entry.
 * @param pool pool to fan the batch out on; samples are independent,
 *        so any interleaving is bit-identical to the serial loop.
 * @param preds_out when non-empty, preds_out[i] receives the argmax
 *        class of xs[i] (from the same forward pass).
 * @param active when non-empty, samples with active[i] == 0 are
 *        skipped entirely (their outputs are left untouched).
 * @param skip_fooled when true, the backward pass is skipped for
 *        samples already predicted away from labels[i] (grads[i] is
 *        left untouched); iterative attacks use this as their
 *        per-sample early exit.
 */
void lossInputGradientBatch(nn::Network &net,
                            std::span<const nn::Tensor *const> xs,
                            std::span<const std::size_t> labels,
                            std::span<nn::Tensor> grads,
                            AttackScratch &scratch, ThreadPool &pool,
                            std::span<std::size_t> preds_out = {},
                            std::span<const std::uint8_t> active = {},
                            bool skip_fooled = false);

/** Clip every element to [0, 1] (valid image range). */
void clipToImageRange(nn::Tensor &t);

/** Clip @p adv into the L∞ ball of radius @p eps around @p origin,
 *  then to [0,1]. */
void clipToEpsBall(nn::Tensor &adv, const nn::Tensor &origin, double eps);

} // namespace ptolemy::attack

#endif // PTOLEMY_ATTACK_ATTACK_HH
