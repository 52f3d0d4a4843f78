#include "attack.hh"

#include <algorithm>
#include <cmath>

#include "nn/loss.hh"
#include "util/thread_pool.hh"

namespace ptolemy::attack
{

double
mseDistortion(const nn::Tensor &a, const nn::Tensor &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
    }
    return a.size() == 0 ? 0.0 : s / a.size();
}

double
linfDistortion(const nn::Tensor &a, const nn::Tensor &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
    return m;
}

std::size_t
l0Distortion(const nn::Tensor &a, const nn::Tensor &b, double tol)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::abs(static_cast<double>(a[i]) - b[i]) > tol)
            ++n;
    return n;
}

double
l2Distortion(const nn::Tensor &a, const nn::Tensor &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
    }
    return std::sqrt(s);
}

std::uint64_t
sampleKey(std::uint64_t seed, std::uint64_t sample_index)
{
    std::uint64_t z = sample_index + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return seed ^ (z ^ (z >> 31));
}

void
AttackScratch::prepare(nn::Network &net, ThreadPool &pool)
{
    slots.growTo(pool.size());
    // Build the parameter index before the fan-out: backward passes
    // from concurrent slots may read it but must never build it.
    net.flatParams();
}

ThreadPool &
Attack::pool() const
{
    return poolOverride ? *poolOverride : globalPool();
}

AttackResult
Attack::run(nn::Network &net, const nn::Tensor &x, std::size_t label,
            std::uint64_t sample_index)
{
    AttackResult r;
    const nn::Tensor *xp = &x;
    runBatch(net, {&xp, 1}, {&label, 1}, {&r, 1}, sample_index);
    return r;
}

nn::Tensor
lossInputGradient(nn::Network &net, const nn::Tensor &x, std::size_t label,
                  double *loss_out)
{
    nn::Tensor grad;
    lossInputGradientInto(net, x, label, grad, loss_out);
    return grad;
}

void
lossInputGradientInto(nn::Network &net, const nn::Tensor &x,
                      std::size_t label, nn::Tensor &grad, double *loss_out)
{
    thread_local nn::Network::Record rec; // reused across gradient queries
    thread_local nn::LossGrad lg;
    net.forwardInto(x, rec);
    nn::softmaxCrossEntropyInto(rec.logits(), label, lg);
    if (loss_out)
        *loss_out = lg.loss;
    grad = net.backward(rec, lg.grad); // copy-assign reuses the buffer
}

void
lossInputGradientBatch(nn::Network &net,
                       std::span<const nn::Tensor *const> xs,
                       std::span<const std::size_t> labels,
                       std::span<nn::Tensor> grads, AttackScratch &scratch,
                       ThreadPool &pool, std::span<std::size_t> preds_out,
                       std::span<const std::uint8_t> active,
                       bool skip_fooled)
{
    scratch.prepare(net, pool);
    pool.parallelForWithTid(xs.size(), [&](std::size_t i, unsigned tid) {
        if (!active.empty() && !active[i])
            return;
        auto &sl = scratch.slots[tid];
        net.forwardInto(*xs[i], sl.rec, /*train=*/false, sl.arena);
        const std::size_t pred = sl.rec.predictedClass();
        if (!preds_out.empty())
            preds_out[i] = pred;
        if (skip_fooled && pred != labels[i])
            return;
        nn::softmaxCrossEntropyInto(sl.rec.logits(), labels[i],
                                    sl.lossGrad);
        // Input-gradient-only backward: attacks never consume dW, and
        // skipping it roughly halves the conv backward arithmetic.
        // Copy-assign reuses the caller's per-sample buffer.
        grads[i] = net.backwardInputOnly(sl.rec, sl.lossGrad.grad,
                                         sl.arena);
    });
}

void
clipToImageRange(nn::Tensor &t)
{
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = std::clamp(t[i], 0.0f, 1.0f);
}

void
clipToEpsBall(nn::Tensor &adv, const nn::Tensor &origin, double eps)
{
    for (std::size_t i = 0; i < adv.size(); ++i) {
        const float lo = static_cast<float>(origin[i] - eps);
        const float hi = static_cast<float>(origin[i] + eps);
        adv[i] = std::clamp(adv[i], std::max(0.0f, lo), std::min(1.0f, hi));
    }
}

} // namespace ptolemy::attack
