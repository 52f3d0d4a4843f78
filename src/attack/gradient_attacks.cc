#include "gradient_attacks.hh"

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::attack
{

namespace
{

/** One ascent step on the CE loss: x += step * sign(grad). */
void
signStep(nn::Tensor &x, const nn::Tensor &grad, double step)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (grad[i] > 0.0f)
            x[i] += static_cast<float>(step);
        else if (grad[i] < 0.0f)
            x[i] -= static_cast<float>(step);
    }
}

/** Grow the per-batch buffers to @p n samples (never shrinking, so
 *  warmed tensor buffers survive smaller tail batches). */
void
ensureState(detail::LinfBatchState &st, std::size_t n)
{
    if (st.advs.size() < n) {
        st.advs.resize(n);
        st.grads.resize(n);
        st.advPtrs.resize(n);
        st.active.resize(n);
        st.preds.resize(n);
        st.iters.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i)
        st.advPtrs[i] = &st.advs[i];
}

/**
 * Lockstep batched BIM loop. Precondition: st.advs[0..n) hold each
 * sample's start point. Every iteration runs one fused batched
 * forward+backward for the active samples; a sample whose prediction
 * left its label is retired before stepping — exactly where the serial
 * loop broke — so results are bit-identical to the sample-serial path.
 */
void
iterativeLinfBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
                   std::span<const std::size_t> labels,
                   std::span<AttackResult> results,
                   const AttackBudget &budget, AttackScratch &scratch,
                   detail::LinfBatchState &st, ThreadPool &pool)
{
    const std::size_t n = xs.size();
    std::fill_n(st.active.begin(), n, static_cast<std::uint8_t>(1));
    std::size_t n_active = n;

    for (int it = 0; it < budget.maxIters && n_active > 0; ++it) {
        lossInputGradientBatch(net, {st.advPtrs.data(), n}, labels,
                               {st.grads.data(), n}, scratch, pool,
                               {st.preds.data(), n},
                               {st.active.data(), n},
                               /*skip_fooled=*/true);
        // Retire samples the model already mispredicts (they take no
        // step this iteration), then step the survivors.
        for (std::size_t i = 0; i < n; ++i) {
            if (!st.active[i])
                continue;
            if (st.preds[i] != labels[i]) {
                st.active[i] = 0;
                st.iters[i] = it;
                --n_active;
            }
        }
        pool.parallelForWithTid(n, [&](std::size_t i, unsigned) {
            if (!st.active[i])
                return;
            signStep(st.advs[i], st.grads[i], budget.stepSize);
            clipToEpsBall(st.advs[i], *xs[i], budget.epsilon);
        });
    }

    // Finalize: retired samples are successes by the prediction already
    // observed; budget-exhausted survivors need one more forward to
    // settle their success flag.
    pool.parallelForWithTid(n, [&](std::size_t i, unsigned tid) {
        AttackResult &r = results[i];
        if (st.active[i]) {
            auto &sl = scratch.slots[tid];
            net.forwardInto(st.advs[i], sl.rec, /*train=*/false, sl.arena);
            r.success = sl.rec.predictedClass() != labels[i];
            st.iters[i] = budget.maxIters;
        } else {
            r.success = true;
        }
        r.adversarial = st.advs[i]; // copy-assign reuses the buffer
        r.mse = mseDistortion(r.adversarial, *xs[i]);
        r.iterations = st.iters[i];
    });
}

} // namespace

void
Fgsm::runBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
               std::span<const std::size_t> labels,
               std::span<AttackResult> results, std::uint64_t)
{
    const std::size_t n = xs.size();
    if (n == 0)
        return;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);
    if (grads.size() < n)
        grads.resize(n);
    lossInputGradientBatch(net, xs, labels, {grads.data(), n}, scratch,
                           tp);
    tp.parallelForWithTid(n, [&](std::size_t i, unsigned tid) {
        auto &sl = scratch.slots[tid];
        AttackResult &r = results[i];
        r.adversarial = *xs[i]; // copy-assign reuses the buffer
        signStep(r.adversarial, grads[i], budget.epsilon);
        clipToImageRange(r.adversarial);
        net.forwardInto(r.adversarial, sl.rec, /*train=*/false, sl.arena);
        r.success = sl.rec.predictedClass() != labels[i];
        r.mse = mseDistortion(r.adversarial, *xs[i]);
        r.iterations = 1;
    });
}

void
Bim::runBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
              std::span<const std::size_t> labels,
              std::span<AttackResult> results, std::uint64_t)
{
    const std::size_t n = xs.size();
    if (n == 0)
        return;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);
    ensureState(state, n);
    for (std::size_t i = 0; i < n; ++i)
        state.advs[i] = *xs[i]; // copy-assign reuses the buffer
    iterativeLinfBatch(net, xs, labels, results, budget, scratch, state,
                       tp);
}

void
Pgd::runBatch(nn::Network &net, std::span<const nn::Tensor *const> xs,
              std::span<const std::size_t> labels,
              std::span<AttackResult> results, std::uint64_t index_base)
{
    const std::size_t n = xs.size();
    if (n == 0)
        return;
    ThreadPool &tp = pool();
    scratch.prepare(net, tp);
    ensureState(state, n);
    tp.parallelForWithTid(n, [&](std::size_t i, unsigned) {
        // Per-sample RNG keyed by the global sample index: the start
        // noise never depends on batch composition or thread count.
        Rng rng(sampleKey(seed, index_base + i));
        nn::Tensor &adv = state.advs[i];
        adv = *xs[i]; // copy-assign reuses the buffer
        for (std::size_t e = 0; e < adv.size(); ++e)
            adv[e] += static_cast<float>(
                rng.uniform(-budget.epsilon, budget.epsilon));
        clipToEpsBall(adv, *xs[i], budget.epsilon);
    });
    iterativeLinfBatch(net, xs, labels, results, budget, scratch, state,
                       tp);
}

} // namespace ptolemy::attack
