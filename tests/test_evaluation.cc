/**
 * @file
 * Attack-evaluation accounting regression tests: success rates must be
 * normalized by the attacks actually attempted (the test set can run
 * out of correctly-classified inputs), and fitAndScore must always
 * keep a non-empty held-out split however extreme train_fraction is.
 */

#include <gtest/gtest.h>

#include "attack/gradient_attacks.hh"
#include "common/test_models.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "util/rng.hh"

namespace ptolemy::core
{
namespace
{

int
numWeighted()
{
    return static_cast<int>(
        ptolemy::testing::world().net.weightedNodes().size());
}

/** Builder + session over the shared trained world with a few class
 *  paths. */
struct SmallDetector
{
    DetectorBuilder bld{ptolemy::testing::world().net,
                        path::ExtractionConfig::bwCu(numWeighted(), 0.5),
                        10};
    DetectorSession sess{bld.model()};

    SmallDetector()
    {
        bld.profileClassPaths(ptolemy::testing::world().dataset.train, 10);
    }
};

/** Pairs manufactured from test samples + deterministic noise: enough
 *  for fitAndScore, with no attack cost. */
std::vector<DetectionPair>
syntheticPairs(std::size_t n)
{
    auto &w = ptolemy::testing::world();
    Rng rng(0x51AB);
    std::vector<DetectionPair> pairs;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &s = w.dataset.test[i];
        DetectionPair p;
        p.clean = s.input;
        p.adversarial = s.input;
        for (std::size_t e = 0; e < p.adversarial.size(); ++e)
            p.adversarial[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
        p.label = s.label;
        p.mse = 0.003;
        pairs.push_back(std::move(p));
    }
    return pairs;
}

TEST(EvaluationAccounting, SuccessRateDividesByAttemptedNotByCap)
{
    // A test slice smaller than the cap: buildAttackPairs can attempt
    // at most slice-many attacks, so the denominator must be the
    // attempted count — dividing by the cap deflated every rate.
    auto &w = ptolemy::testing::world();
    const nn::Dataset slice(w.dataset.test.begin(),
                            w.dataset.test.begin() + 10);
    const int cap = 30;
    attack::Fgsm fgsm;

    int attempted = 0;
    const auto pairs =
        buildAttackPairs(w.net, fgsm, slice, cap, 0xE7A1, &attempted);
    ASSERT_GT(attempted, 0);
    ASSERT_LE(attempted, static_cast<int>(slice.size()));
    ASSERT_LT(attempted, cap) << "slice must exhaust before the cap";
    ASSERT_GT(pairs.size(), 0u) << "FGSM should fool some inputs";

    SmallDetector det;
    const auto r =
        evaluateAttack(w.net, det.bld, det.sess, fgsm, slice, cap);
    EXPECT_EQ(r.numAttempted, static_cast<std::size_t>(attempted));
    EXPECT_EQ(r.numPairs, pairs.size());
    EXPECT_DOUBLE_EQ(r.attackSuccessRate,
                     static_cast<double>(r.numPairs) / r.numAttempted);
}

TEST(EvaluationAccounting, EmptyTestSetIsSafe)
{
    auto &w = ptolemy::testing::world();
    SmallDetector det;
    attack::Fgsm fgsm;
    int attempted = -1;
    const auto pairs =
        buildAttackPairs(w.net, fgsm, {}, 20, 0xE7A1, &attempted);
    EXPECT_TRUE(pairs.empty());
    EXPECT_EQ(attempted, 0);
    const auto r = evaluateAttack(w.net, det.bld, det.sess, fgsm, {}, 20);
    EXPECT_EQ(r.numPairs, 0u);
    EXPECT_EQ(r.numAttempted, 0u);
    EXPECT_DOUBLE_EQ(r.attackSuccessRate, 0.0);
}

TEST(EvaluationSplit, HighTrainFractionStillHoldsOutTwoPairs)
{
    // 4 pairs at train_fraction 0.9: the unclamped split trained on 3
    // and scored a single pair (or none at fraction 1.0), reporting a
    // near-vacuous AUC. The clamp guarantees >= 2 held-out pairs.
    SmallDetector det;
    const auto pairs = syntheticPairs(4);
    for (double frac : {0.9, 1.0}) {
        const auto ps = fitAndScore(det.bld, det.sess, pairs, frac);
        EXPECT_EQ(ps.heldOut.size(), 4u) << "frac=" << frac;
        EXPECT_GE(ps.auc, 0.0);
        EXPECT_LE(ps.auc, 1.0);
    }
    // And the lower clamp still applies: tiny fractions keep 2 in
    // training.
    const auto ps = fitAndScore(det.bld, det.sess, pairs, 0.0);
    EXPECT_EQ(ps.heldOut.size(), 4u);
}

} // namespace
} // namespace ptolemy::core
