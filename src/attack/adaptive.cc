#include "adaptive.hh"

#include <cmath>
#include <limits>

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::attack
{

AdaptiveActivationAttack::AdaptiveActivationAttack(
    int layers_considered, const nn::Dataset *target_pool, int num_targets,
    int iters, double lr, std::uint64_t seed)
    : layersConsidered(layers_considered), targetPool(target_pool),
      numTargets(num_targets), iters(iters), lr(lr), seed(seed)
{
}

void
AdaptiveActivationAttack::runBatch(nn::Network &net,
                                   std::span<const nn::Tensor *const> xs,
                                   std::span<const std::size_t> labels,
                                   std::span<AttackResult> results,
                                   std::uint64_t index_base)
{
    if (xs.empty())
        return;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);

    // The activations considered: outputs of the last n weighted layers
    // (shared, read-only across the batch).
    const auto &weighted = net.weightedNodes();
    const int n_w = static_cast<int>(weighted.size());
    const int first = std::max(0, n_w - layersConsidered);
    zNodes.assign(weighted.begin() + first, weighted.end());

    tp.parallelForWithTid(xs.size(), [&](std::size_t si, unsigned tid) {
        auto &sl = scratch.slots[tid];
        const nn::Tensor &x = *xs[si];
        const std::size_t label = labels[si];

        // Per-sample RNG keyed by the global sample index: target
        // draws never depend on batch composition or thread count.
        Rng rng(sampleKey(seed, index_base + si));

        nn::Tensor &best_adv = sl.best;
        best_adv = x; // copy-assign reuses the slot buffer
        double best_loss = std::numeric_limits<double>::max();
        int total_iters = 0;

        std::vector<std::size_t> &used_classes = sl.idx;
        used_classes.clear();
        for (int t = 0; t < numTargets && !targetPool->empty(); ++t) {
            // Draw a benign target of a fresh, different class.
            const nn::Sample *target = nullptr;
            for (int tries = 0; tries < 200 && !target; ++tries) {
                const auto &cand =
                    (*targetPool)[rng.below(targetPool->size())];
                if (cand.label == label)
                    continue;
                bool fresh = true;
                for (std::size_t uc : used_classes)
                    if (uc == cand.label)
                        fresh = false;
                if (fresh)
                    target = &cand;
            }
            if (!target)
                break;
            used_classes.push_back(target->label);

            // Record the target's activations z_i(x_t).
            net.forwardInto(target->input, sl.auxRec, /*train=*/false,
                            sl.arena);
            sl.acts.resize(zNodes.size());
            for (std::size_t zi = 0; zi < zNodes.size(); ++zi)
                sl.acts[zi] = sl.auxRec.outputs[zNodes[zi]]; // buffer reuse

            // PGD on the activation-matching loss.
            nn::Tensor &adv = sl.adv;
            adv = x;
            double loss = 0.0;
            for (int it = 0; it < iters; ++it) {
                ++total_iters;
                net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
                loss = 0.0;
                sl.nodeSeeds.resize(zNodes.size());
                for (std::size_t zi = 0; zi < zNodes.size(); ++zi) {
                    const auto &z = sl.rec.outputs[zNodes[zi]];
                    sl.nodeSeeds[zi].first = zNodes[zi];
                    nn::Tensor &g = sl.nodeSeeds[zi].second;
                    g.resize(z.shape());
                    for (std::size_t i = 0; i < z.size(); ++i) {
                        const float d = z[i] - sl.acts[zi][i];
                        loss += static_cast<double>(d) * d;
                        g[i] = 2.0f * d;
                    }
                }
                const nn::Tensor &grad =
                    net.backwardMultiInputOnly(sl.rec, sl.nodeSeeds,
                                               sl.arena);
                // Normalize the step so the first iterations do not
                // overshoot.
                const double gnorm = std::sqrt(grad.sumSq()) + 1e-12;
                for (std::size_t i = 0; i < adv.size(); ++i)
                    adv[i] -= static_cast<float>(lr / gnorm * grad[i]);
                clipToImageRange(adv);
            }
            if (loss < best_loss) {
                net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
                if (sl.rec.predictedClass() != label) {
                    best_loss = loss;
                    best_adv = adv;
                }
            }
        }

        AttackResult &r = results[si];
        net.forwardInto(best_adv, sl.rec, /*train=*/false, sl.arena);
        r.success = sl.rec.predictedClass() != label;
        r.mse = mseDistortion(best_adv, x);
        r.iterations = total_iters;
        r.adversarial = best_adv; // copy-assign reuses the buffer
    });
}

} // namespace ptolemy::attack
