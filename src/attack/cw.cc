#include "cw.hh"

#include <algorithm>

#include "util/thread_pool.hh"

namespace ptolemy::attack
{

void
CarliniWagnerL2::runBatch(nn::Network &net,
                          std::span<const nn::Tensor *const> xs,
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
        nn::Tensor &best_adv = sl.best;
        adv = x;      // copy-assigns reuse the slot buffers
        best_adv = x;
        double best_l2 = 1e30;
        bool found = false;
        int it = 0;

        for (; it < maxIters; ++it) {
            net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
            const auto &logits = sl.rec.logits();

            // Strongest rival class.
            std::size_t rival = label == 0 ? 1 : 0;
            for (std::size_t k = 0; k < logits.size(); ++k)
                if (k != label && logits[k] > logits[rival])
                    rival = k;

            const double margin =
                static_cast<double>(logits[label]) - logits[rival];
            if (margin < -kappa) {
                // Adversarial; keep the lowest-distortion success and
                // keep shrinking the perturbation.
                const double l2 = l2Distortion(adv, x);
                if (l2 < best_l2) {
                    best_l2 = l2;
                    best_adv = adv;
                    found = true;
                }
            }

            // Gradient of the margin part (only active while
            // margin > -kappa).
            nn::Tensor &grad = sl.grad;
            if (margin > -kappa) {
                sl.logitSeed.resizeZero(logits.shape());
                sl.logitSeed[label] = 1.0f;
                sl.logitSeed[rival] = -1.0f;
                grad = net.backwardInputOnly(sl.rec, sl.logitSeed, sl.arena);
                grad *= static_cast<float>(tradeoffC);
            } else {
                grad.resizeZero(x.shape());
            }
            // Plus the distortion gradient 2*(adv - x).
            for (std::size_t i = 0; i < adv.size(); ++i)
                grad[i] += 2.0f * (adv[i] - x[i]);

            for (std::size_t i = 0; i < adv.size(); ++i)
                adv[i] -= static_cast<float>(learnRate) * grad[i];
            clipToImageRange(adv);
        }

        AttackResult &r = results[si];
        r.adversarial = found ? best_adv : adv;
        net.forwardInto(r.adversarial, sl.rec, /*train=*/false, sl.arena);
        r.success = sl.rec.predictedClass() != label;
        r.mse = mseDistortion(r.adversarial, x);
        r.iterations = it;
    });
}

} // namespace ptolemy::attack
