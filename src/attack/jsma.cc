#include "jsma.hh"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.hh"

namespace ptolemy::attack
{

void
Jsma::runBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
               std::span<const std::size_t> labels,
               std::span<AttackResult> results, std::uint64_t)
{
    if (xs.empty())
        return;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);
    tp.parallelForWithTid(xs.size(), [&](std::size_t si, unsigned tid) {
        auto &sl = scratch.slots[tid];
        const nn::Tensor &x = *xs[si];
        const std::size_t label = labels[si];

        nn::Tensor &adv = sl.adv;
        adv = x; // copy-assign reuses the slot buffer
        sl.flags.assign(x.size(), 0); // touched marks
        int changed = 0, it = 0;

        // Target: the runner-up class of the clean input.
        net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
        std::size_t target = 0;
        float best = -1e30f;
        for (std::size_t k = 0; k < sl.rec.logits().size(); ++k) {
            if (k != label && sl.rec.logits()[k] > best) {
                best = sl.rec.logits()[k];
                target = k;
            }
        }

        while (changed < maxPixels) {
            ++it;
            net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
            if (sl.rec.predictedClass() != label)
                break;
            // Saliency direction: grad of (logit_target - logit_label).
            sl.logitSeed.resizeZero(sl.rec.logits().shape());
            sl.logitSeed[target] = 1.0f;
            sl.logitSeed[label] = -1.0f;
            const nn::Tensor &grad =
                net.backwardInputOnly(sl.rec, sl.logitSeed, sl.arena);

            // Pick the untouched element with the largest |saliency|
            // that can still move in the helpful direction.
            double best_sal = 0.0;
            std::size_t best_idx = x.size();
            for (std::size_t i = 0; i < grad.size(); ++i) {
                if (sl.flags[i])
                    continue;
                const double sal =
                    std::abs(static_cast<double>(grad[i]));
                const bool movable = grad[i] > 0.0f ? adv[i] < 1.0f
                                                    : adv[i] > 0.0f;
                if (movable && sal > best_sal) {
                    best_sal = sal;
                    best_idx = i;
                }
            }
            if (best_idx == x.size())
                break; // saturated
            sl.flags[best_idx] = 1;
            ++changed;
            adv[best_idx] += grad[best_idx] > 0.0f
                ? static_cast<float>(step)
                : static_cast<float>(-step);
            adv[best_idx] = std::clamp(adv[best_idx], 0.0f, 1.0f);
        }

        AttackResult &r = results[si];
        net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
        r.success = sl.rec.predictedClass() != label;
        r.mse = mseDistortion(adv, x);
        r.iterations = it;
        r.adversarial = adv; // copy-assign reuses the buffer
    });
}

} // namespace ptolemy::attack
