/**
 * @file
 * Telemetry-determinism probe for CI: builds the same fitted detector
 * as detect_determinism, attaches a TelemetryHub to the serving
 * session, streams mixed clean/perturbed traffic through detectBatch
 * on the process-wide pool, seals windows, and prints the canonical
 * FNV-1a hash of every sealed window's raw aggregates (sketch
 * counters, histogram bins, class tallies). Running it under different
 * PTOLEMY_NUM_THREADS values must print the same hashes — the hub's
 * bit-identity contract: integer counters shard-merged in fixed slot
 * order cannot depend on which thread ingested which record.
 *
 * The run also self-checks the drift semantics end to end: a reference
 * profile is captured from benign traffic, an unshifted window must
 * raise no drift event, and a strongly shifted window must raise one.
 * Exit status 1 on any self-check failure (those are thread-count
 * independent, so the CI hash diff alone would not catch them).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "data/synthetic.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "telemetry/hub.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace ptolemy;

nn::Network
makeProbeNet()
{
    nn::Network net("telemetry_probe", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 12 * 4 * 4, 10));
    return net;
}

/** Inputs at perturbation level @p amp (0 = clean). */
std::vector<nn::Tensor>
trafficAt(const nn::Dataset &test, double amp, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Tensor> xs;
    for (const auto &s : test) {
        nn::Tensor x = s.input;
        if (amp > 0.0)
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-amp, amp));
        xs.push_back(std::move(x));
    }
    return xs;
}

} // namespace

int
main()
{
    data::DatasetSpec spec;
    spec.numClasses = 10;
    spec.trainPerClass = 20;
    spec.testPerClass = 4;
    spec.seed = 42;
    const auto ds = data::makeSyntheticDataset(spec);

    auto net = makeProbeNet();
    nn::heInit(net, 7);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.learningRate = 0.02;
    nn::Trainer trainer(tc);
    trainer.train(net, ds.train);

    core::DetectorBuilder bld(
        net,
        path::ExtractionConfig::bwCu(
            static_cast<int>(net.weightedNodes().size()), 0.5),
        spec.numClasses);
    bld.profileClassPaths(ds.train, /*max_per_class=*/12);
    {
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (const auto &s : ds.test) {
            clean.push_back(s.input);
            nn::Tensor x = s.input;
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(x));
        }
        classify::FeatureMatrix benign, adversarial;
        bld.featuresBatch(clean, benign);
        bld.featuresBatch(noisy, adversarial);
        bld.fitClassifier(benign, adversarial);
    }
    const core::DetectorModel model = std::move(bld).build();

    telemetry::TelemetryConfig tcfg;
    tcfg.numClasses = spec.numClasses;
    // At least the pool width (the session rejects a narrower hub);
    // 8 at every CI thread count, so the shard geometry is the same.
    tcfg.slots = std::max<std::size_t>(8, globalPool().size());
    tcfg.windowRecords = 1u << 30; // sealed manually per phase
    core::DetectorSession sess(model);
    telemetry::TelemetryHub hub(tcfg);
    sess.attachTelemetry(&hub);

    std::vector<core::Decision> out;

    // Phase 0 — reference profile from benign traffic (3 passes).
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(ds.test, 0.0, 0), out);
    const std::uint64_t refRecords = hub.captureReference();

    // Phase 1 — unshifted window: clean traffic again, must be silent.
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(ds.test, 0.0, 0), out);
    hub.sealWindow();
    const std::uint64_t eventsUnshifted = hub.driftEventCount();

    // Phase 2 — shifted window: heavy perturbation pushes scores
    // toward the adversarial mode the forest was fitted on.
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(ds.test, 0.5, 0xD37EC7 + pass), out);
    hub.sealWindow();
    const std::uint64_t eventsShifted = hub.driftEventCount();

    telemetry::ThresholdProposal prop{};
    const bool proposed = hub.proposeThreshold(prop, 0.5);

    const std::uint64_t h1 = hub.windowHash(1);
    const std::uint64_t h2 = hub.windowHash(2);
    std::uint64_t folded = 1469598103934665603ull;
    folded ^= h1;
    folded *= 1099511628211ull;
    folded ^= h2;
    folded *= 1099511628211ull;

    std::printf(
        "threads=%u slots=%zu ref_records=%llu "
        "events_unshifted=%llu events_shifted=%llu proposed=%d "
        "proposed_threshold=%.6f window1_hash=%016llx "
        "window2_hash=%016llx full_hash=%016llx\n",
        globalPool().size(), hub.numSlots(),
        static_cast<unsigned long long>(refRecords),
        static_cast<unsigned long long>(eventsUnshifted),
        static_cast<unsigned long long>(eventsShifted),
        proposed ? 1 : 0, prop.proposedThreshold,
        static_cast<unsigned long long>(h1),
        static_cast<unsigned long long>(h2),
        static_cast<unsigned long long>(folded));

    if (eventsUnshifted != 0) {
        std::fprintf(stderr,
                     "FAIL: unshifted window raised a drift event\n");
        return 1;
    }
    if (eventsShifted == 0) {
        std::fprintf(stderr,
                     "FAIL: shifted window raised no drift event\n");
        return 1;
    }
    if (!proposed) {
        std::fprintf(stderr,
                     "FAIL: no threshold proposal from sealed window\n");
        return 1;
    }
    return 0;
}
