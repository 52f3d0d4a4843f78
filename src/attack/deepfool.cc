#include "deepfool.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/thread_pool.hh"

namespace ptolemy::attack
{

void
DeepFool::runBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
                   std::span<const std::size_t> labels,
                   std::span<AttackResult> results, std::uint64_t)
{
    if (xs.empty())
        return;
    constexpr std::size_t kRivals = 3;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);
    tp.parallelForWithTid(xs.size(), [&](std::size_t si, unsigned tid) {
        auto &sl = scratch.slots[tid];
        const nn::Tensor &x = *xs[si];
        const std::size_t label = labels[si];

        nn::Tensor &adv = sl.adv;
        adv = x; // copy-assign reuses the slot buffer
        int it = 0;
        for (; it < maxIters; ++it) {
            net.forwardInto(adv, sl.rec, /*train=*/false, sl.arena);
            const auto &logits = sl.rec.logits();
            if (sl.rec.predictedClass() != label)
                break;

            // Rivals in descending-logit order (label excluded).
            sl.idx.resize(logits.size());
            std::iota(sl.idx.begin(), sl.idx.end(), 0);
            std::sort(sl.idx.begin(), sl.idx.end(),
                      [&](std::size_t a, std::size_t b) {
                          return logits[a] > logits[b];
                      });

            // For each rival class k, the linearized distance to the
            // boundary is |f_k - f_label| / ||grad(f_k - f_label)||;
            // move toward the closest one.
            double best_dist = std::numeric_limits<double>::max();
            nn::Tensor &best_dir = sl.best;
            bool have_dir = false;
            double best_fdiff = 0.0;
            std::size_t rivals = 0;
            for (std::size_t k : sl.idx) {
                if (k == label)
                    continue;
                if (rivals++ == kRivals)
                    break;
                sl.logitSeed.resizeZero(logits.shape());
                sl.logitSeed[k] = 1.0f;
                sl.logitSeed[label] = -1.0f;
                // One record serves every rival's backward: layers keep
                // no per-pass state, so no refresh forward is needed.
                const nn::Tensor &grad =
                    net.backwardInputOnly(sl.rec, sl.logitSeed, sl.arena);
                const double gnorm2 = grad.sumSq();
                if (gnorm2 < 1e-20)
                    continue;
                const double fdiff =
                    static_cast<double>(logits[k]) - logits[label];
                const double dist = std::abs(fdiff) / std::sqrt(gnorm2);
                if (dist < best_dist) {
                    best_dist = dist;
                    best_dir = grad; // copy-assign reuses the buffer
                    have_dir = true;
                    best_fdiff = fdiff;
                }
            }
            if (!have_dir)
                break;
            // Step just across the boundary: delta = |f|/||g||^2 * g.
            const double gnorm2 = best_dir.sumSq();
            const double scale =
                (1.0 + overshoot) * (std::abs(best_fdiff) + 1e-4) / gnorm2;
            for (std::size_t i = 0; i < adv.size(); ++i)
                adv[i] += static_cast<float>(scale * best_dir[i]);
            clipToImageRange(adv);
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
