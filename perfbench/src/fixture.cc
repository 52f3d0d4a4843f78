#include "fixture.hh"

#include <cstring>

#include "attack/gradient_attacks.hh"
#include "classify/random_forest.hh"
#include "models/zoo.hh"
#include "nn/init.hh"
#include "nn/trainer.hh"
#include "util/stats.hh"

namespace perfbench
{

namespace
{

// The fixture is the same for every seed: only the inputs the library
// serves come from --seed.
constexpr std::uint64_t kFixtureDataSeed = 0x5EED0001;
constexpr std::uint64_t kFixtureInitSeed = 0x5EED0002;
constexpr int kNumClasses = 10;
constexpr int kTrainPerClass = 24;
constexpr int kFitPerClass = 8;
constexpr int kInputsPerClass = 24;
constexpr int kProfilePerClass = 24;

attack::AttackBudget
bimBudget()
{
    attack::AttackBudget b;
    b.epsilon = 0.08;
    b.stepSize = 0.01;
    b.maxIters = 16;
    return b;
}

/** BIM adversarials of @p clean; only successful ones are kept. */
std::vector<nn::Tensor>
bimAdversarials(nn::Network &net, const nn::Dataset &clean,
                std::uint64_t index_base)
{
    std::vector<const nn::Tensor *> xs;
    std::vector<std::size_t> labels;
    for (const auto &s : clean) {
        xs.push_back(&s.input);
        labels.push_back(s.label);
    }
    std::vector<attack::AttackResult> res(xs.size());
    attack::Bim bim(bimBudget());
    bim.runBatch(net, xs, labels, res, index_base);
    std::vector<nn::Tensor> out;
    for (auto &r : res)
        if (r.success)
            out.push_back(std::move(r.adversarial));
    return out;
}

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

} // namespace

bool
sameDecision(const core::Decision &a, const core::Decision &b)
{
    if (a.predictedClass != b.predictedClass ||
        a.adversarial != b.adversarial || !sameBits(a.score, b.score) ||
        !sameBits(a.features.overall, b.features.overall) ||
        a.features.perLayer.size() != b.features.perLayer.size())
        return false;
    for (std::size_t i = 0; i < a.features.perLayer.size(); ++i)
        if (!sameBits(a.features.perLayer[i], b.features.perLayer[i]))
            return false;
    return true;
}

void
buildModel(World &w)
{
    // Set-up: trained net -> ready-to-serve DetectorModel, including
    // the weight prepack the DetectorModel constructor performs.
    w.net.invalidatePackedWeights();
    Scope span(kSpanSetup, static_cast<std::uint32_t>(w.setupSeconds.size()));
    const auto s0 = Clock::now();
    core::DetectorBuilder bld(w.net, w.cfg, kNumClasses);
    bld.profileClassPaths(w.fixture.train, kProfilePerClass);
    classify::FeatureMatrix benign, adversarial;
    bld.featuresBatch(w.fitClean, benign);
    bld.featuresBatch(w.fitAdv, adversarial);
    bld.fitClassifier(benign, adversarial);
    w.model.emplace(std::move(bld).build());
    w.setupSeconds.push_back(secondsSince(s0));
}

void
buildWorld(World &w, std::uint64_t seed)
{
    w.seed = seed;
    // ---- fixture: fixed data, fixed init, deterministic trainer
    data::DatasetSpec fs;
    fs.numClasses = kNumClasses;
    fs.trainPerClass = kTrainPerClass;
    fs.testPerClass = kFitPerClass;
    fs.seed = kFixtureDataSeed;
    w.fixture = data::makeSyntheticDataset(fs);
    w.net = models::makeByName(w.spec.model, kNumClasses);
    const auto t0 = Clock::now();
    nn::heInit(w.net, kFixtureInitSeed);
    nn::TrainConfig tc;
    tc.epochs = w.spec.epochs;
    tc.learningRate = w.spec.lr;
    tc.batchSize = 8;
    nn::Trainer trainer(tc);
    trainer.train(w.net, w.fixture.train);
    w.trainSeconds = secondsSince(t0);
    w.cleanAccuracy = nn::Trainer::evaluate(w.net, w.fixture.test);

    const int L = static_cast<int>(w.net.weightedNodes().size());
    w.cfg = path::ExtractionConfig::bwCu(L, w.spec.theta);
    if (w.spec.extractLast > 0)
        w.cfg.selectFrom(L - w.spec.extractLast);

    const auto tBim = Clock::now();
    // Classifier-fit rows: fixture test split and its BIM adversarials.
    for (const auto &s : w.fixture.test)
        w.fitClean.push_back(s.input);
    w.fitAdv = bimAdversarials(w.net, w.fixture.test, 0);

    // ---- seeded inputs: held-out clean samples + their adversarials
    data::DatasetSpec is;
    is.numClasses = kNumClasses;
    is.trainPerClass = 1;
    is.testPerClass = kInputsPerClass;
    is.seed = seed;
    const auto held = data::makeSyntheticDataset(is);
    for (const auto &s : held.test) {
        w.inputs.push_back(s.input);
        w.isAdv.push_back(0);
    }
    for (auto &x : bimAdversarials(w.net, held.test, seed << 20)) {
        w.inputs.push_back(std::move(x));
        w.isAdv.push_back(1);
    }

    const double bimSeconds = secondsSince(tBim);
    buildModel(w);

    // ---- single-stream reference Decisions
    const auto tRef = Clock::now();
    core::DetectorSession sess(*w.model);
    w.reference.reserve(w.inputs.size());
    for (const auto &x : w.inputs)
        w.reference.push_back(sess.detect(x));
    std::printf("fixture: train %.3f s, BIM %.3f s, reference %.3f s\n",
                w.trainSeconds, bimSeconds, secondsSince(tRef));
}

void
relayout(World &w, std::size_t epoch, bool rebuild)
{
    // Below glibc's 128 KiB mmap threshold, so the pad shifts the heap;
    // a multiple of 64 bytes plus a varying number of pages.
    const std::size_t bytes = 64 * (1 + (epoch * 977 + 131) % 1900);
    w.net.invalidatePackedWeights();
    w.pads.emplace_back(new char[bytes]);
    if (rebuild)
        buildModel(w);
    else
        w.net.prepackForServing();
    std::vector<nn::Tensor> moved(w.inputs.begin(), w.inputs.end());
    w.inputs.swap(moved);
}

double
measureAuc(World &w, ThreadPool &pool, Report &rep)
{
    core::DetectorSession sess(*w.model);
    std::vector<core::Decision> out;
    sess.detectBatch(w.inputs, out, &pool);
    std::vector<double> scores;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        bad += sameDecision(out[i], w.reference[i]) ? 0 : 1;
        scores.push_back(out[i].score);
    }
    rep.phase("auc.detectBatch", out.size(), bad);
    return aucScore(scores, w.isAdv);
}

} // namespace perfbench
