/**
 * @file
 * Transient-fault extension tests (paper Sec. VIII's future-work claim).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "attack/gradient_attacks.hh"
#include "common/test_models.hh"
#include "core/evaluation.hh"
#include "core/fault_injection.hh"

namespace ptolemy::core
{
namespace
{

TEST(FaultInjection, NoFaultMatchesPlainForward)
{
    auto &w = ptolemy::testing::world();
    // A bit flip on a never-read element index beyond the logits is
    // impossible; instead flip bit 0 of the input-most node and compare
    // the unfaulted control path by flipping the same bit twice... the
    // simplest control: fault on the last node's output does not change
    // earlier outputs.
    FaultSpec f;
    f.nodeId = w.net.numNodes() - 1;
    f.element = 0;
    f.bit = 22;
    const auto &x = w.dataset.test[0].input;
    auto clean = w.net.forward(x);
    auto faulty = forwardWithFault(w.net, x, f);
    for (int id = 0; id + 1 < w.net.numNodes(); ++id)
        for (std::size_t i = 0; i < clean.outputs[id].size(); ++i)
            ASSERT_FLOAT_EQ(clean.outputs[id][i], faulty.outputs[id][i]);
    // And exactly one logit differs.
    int diffs = 0;
    for (std::size_t i = 0; i < clean.logits().size(); ++i)
        diffs += clean.logits()[i] != faulty.logits()[i];
    EXPECT_EQ(diffs, 1);
}

TEST(FaultInjection, SomeFaultsPropagateSomeAreMasked)
{
    auto &w = ptolemy::testing::world();
    const auto &x = w.dataset.test[1].input;
    auto clean = w.net.forward(x);
    int propagated = 0, masked = 0;
    // Individual SEUs can be masked (negative pre-ReLU values, losing
    // maxpool windows); across elements some must propagate and, on this
    // net, some must be masked.
    for (std::size_t e = 0; e < 24; ++e) {
        FaultSpec f{0, e, 28};
        auto faulty = forwardWithFault(w.net, x, f);
        double delta = 0.0;
        for (std::size_t i = 0; i < clean.logits().size(); ++i)
            delta += std::abs(clean.logits()[i] - faulty.logits()[i]);
        (delta > 0.0 ? propagated : masked) += 1;
    }
    EXPECT_GT(propagated, 0);
    EXPECT_GT(masked, 0);
}

TEST(FaultInjection, ValuesStayFinite)
{
    auto &w = ptolemy::testing::world();
    for (int bit = 20; bit < 32; ++bit) {
        FaultSpec f{1, 3, bit};
        auto rec = forwardWithFault(w.net, w.dataset.test[2].input, f);
        for (float v : rec.logits().vec())
            EXPECT_TRUE(std::isfinite(v)) << "bit " << bit;
    }
}

TEST(FaultInjection, CampaignDetectsMispredictingFaults)
{
    auto &w = ptolemy::testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    DetectorBuilder bld(w.net, path::ExtractionConfig::bwCu(n, 0.5), 10);
    DetectorSession sess(bld.model());
    bld.profileClassPaths(w.dataset.train, 60);
    // Fit the classifier on adversarial pairs — the campaign then reuses
    // the same detector for hardware faults, as the paper suggests.
    attack::Fgsm fgsm;
    auto pairs = buildAttackPairs(w.net, fgsm, w.dataset.test, 40);
    fitAndScore(bld, sess, pairs, 0.5);

    const auto res = runFaultCampaign(sess, w.dataset.test, 400);
    EXPECT_EQ(res.injections, 400u);
    EXPECT_GE(res.mispredictions, 5u);
    // A mispredicting fault perturbs the activation path like an
    // adversarial input; a solid majority must be rejected.
    EXPECT_GT(res.detectionRate(), 0.5);
    // Masked (benign-outcome) faults should rarely raise alarms.
    EXPECT_LT(static_cast<double>(res.falseAlarms),
              0.15 * (res.injections - res.mispredictions) + 1);
}

TEST(FaultInjection, CampaignOverNoInputsIsZero)
{
    // No sample to draw: the campaign must return the zero result
    // rather than ask the Rng for a draw below zero.
    auto &w = ptolemy::testing::world();
    const int n = static_cast<int>(w.net.weightedNodes().size());
    DetectorModel model(w.net, path::ExtractionConfig::bwCu(n, 0.5), 10);
    DetectorSession sess(model);
    for (int injections : {0, 50}) {
        const auto res = runFaultCampaign(sess, nn::Dataset{}, injections);
        EXPECT_EQ(res.injections, 0u) << injections;
        EXPECT_EQ(res.mispredictions, 0u) << injections;
        EXPECT_EQ(res.detected, 0u) << injections;
        EXPECT_EQ(res.falseAlarms, 0u) << injections;
        EXPECT_DOUBLE_EQ(res.detectionRate(), 0.0) << injections;
    }
    const auto none = runFaultCampaign(sess, w.dataset.test, -3);
    EXPECT_EQ(none.injections, 0u);
}

} // namespace
} // namespace ptolemy::core
