#include "detector_model.hh"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace ptolemy::core
{

namespace
{
const char *const kModelMagic = "ptolemy-detector-v1";
} // namespace

DetectorModel::DetectorModel(const nn::Network &net_ref,
                             path::ExtractionConfig cfg,
                             std::size_t num_classes,
                             classify::ForestConfig forest_cfg)
    : net(&net_ref), pathExtractor(net_ref, std::move(cfg)),
      store(num_classes, pathExtractor.layout().totalBits()), rf(forest_cfg)
{
    // Owner phase: this thread still holds the network exclusively, so
    // filling the layers' packed-weight caches here is race-free; every
    // serving forward after this point is a pure read of the panels.
    net_ref.prepackForServing();
}

std::size_t
DetectorModel::pathInto(const nn::Tensor &x, DetectScratch &s,
                        BitVector &bits) const
{
    net->inferInto(x, s.rec);
    pathExtractor.extractInto(s.rec, s.ws, bits);
    return s.rec.predictedClass();
}

void
DetectorModel::detectInto(const nn::Tensor &x, DetectScratch &s,
                          Decision &d) const
{
    // Inference, extraction, canary comparison and forest scoring
    // back-to-back against one scratch, so the recorded activations
    // are still cache-hot when the extractor ranks them.
    d.predictedClass = pathInto(x, s, s.path);
    path::computeSimilarityInto(s.path, store.classPath(d.predictedClass),
                                pathExtractor.layout(), d.features);
    d.features.toVectorInto(s.feat);
    d.score = rf.predictProb(s.feat);
    // Poisoned activation: a NaN/Inf upstream propagated into the
    // score. Every comparison against a NaN is false, so
    // `score >= 0.5` would silently wave the sample through — fail
    // SAFE instead. Telemetry routes the non-finite score to its typed
    // poison counter (never a bin).
    d.adversarial = !std::isfinite(d.score) || d.score >= 0.5;
}

bool
DetectorModel::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeString(os, kModelMagic);
    writeString(os, net->signature());
    writeU64(os, store.numClasses());
    config().serialize(os);
    store.serialize(os);
    rf.serialize(os);
    return os.good();
}

void
DetectorModel::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ModelLoadError("cannot open '" + path + "'");
    std::string magic, sig;
    std::uint64_t num_classes;
    if (!readString(is, magic) || magic != kModelMagic)
        throw ModelLoadError("bad magic (not a detector artifact file, "
                             "or a truncated/corrupt header)");
    if (!readString(is, sig))
        throw ModelLoadError("truncated architecture signature");
    if (sig != net->signature())
        throw ModelLoadError("architecture signature mismatch: file has '" +
                             sig + "', network is '" + net->signature() +
                             "'");
    if (!readU64(is, num_classes))
        throw ModelLoadError("truncated class count");
    path::ExtractionConfig cfg;
    if (!cfg.deserialize(is))
        throw ModelLoadError("corrupt extraction config");
    if (cfg.numLayers() != static_cast<int>(net->weightedNodes().size()))
        throw ModelLoadError("extraction config layer count does not "
                             "match the network");
    // Rebuild the extractor for the loaded config before validating the
    // store against its layout: the offline and online phases must
    // agree on every knob, or the canary bits would not line up.
    path::PathExtractor ex(*net, std::move(cfg));
    path::ClassPathStore loaded_store;
    classify::RandomForest loaded_rf;
    // Feature arity the served vectors will have ([overall,
    // perLayer...]): trees referencing features beyond it are corrupt.
    const std::size_t num_features = 1 + ex.layout().segments().size();
    if (!loaded_store.deserialize(is))
        throw ModelLoadError("corrupt class-path store");
    if (!loaded_rf.deserialize(is, num_features))
        throw ModelLoadError("corrupt random forest");
    if (loaded_store.numClasses() != num_classes)
        throw ModelLoadError("class-path store class count does not "
                             "match the header");
    if (loaded_store.numClasses() > 0 &&
        loaded_store.numBits() != ex.layout().totalBits())
        throw ModelLoadError("class-path store bit width does not match "
                             "the extraction layout");
    pathExtractor = std::move(ex);
    store = std::move(loaded_store);
    rf = std::move(loaded_rf);
}

bool
DetectorModel::tryLoad(const std::string &path)
{
    try {
        load(path);
        return true;
    } catch (const ModelLoadError &) {
        return false;
    }
}

DetectorBuilder::DetectorBuilder(const nn::Network &net,
                                 path::ExtractionConfig cfg,
                                 std::size_t num_classes,
                                 classify::ForestConfig forest_cfg)
    : mdl(net, std::move(cfg), num_classes, forest_cfg)
{
}

template <class Admit, class Visit>
void
DetectorBuilder::forEachPath(std::size_t n, Admit &&admit, Visit &&visit)
{
    ThreadPool &pool = globalPool();
    const std::size_t chunk = std::max<std::size_t>(8, 4 * pool.size());
    slots.growTo(pool.size());
    chunkXs.clear();
    chunkIdx.clear();

    auto flush = [&] {
        if (chunkXs.empty())
            return;
        chunkPred.resize(chunkXs.size());
        chunkPaths.resize(chunkXs.size());
        pool.parallelForWithTid(
            chunkXs.size(), [&](std::size_t k, unsigned tid) {
                chunkPred[k] =
                    mdl.pathInto(*chunkXs[k], slots[tid], chunkPaths[k]);
            });
        for (std::size_t k = 0; k < chunkIdx.size(); ++k)
            visit(chunkIdx[k], chunkPred[k], chunkPaths[k]);
        chunkXs.clear();
        chunkIdx.clear();
    };

    for (std::size_t i = 0; i < n; ++i) {
        const nn::Tensor *x = admit(i);
        if (x == nullptr)
            continue;
        chunkXs.push_back(x);
        chunkIdx.push_back(i);
        if (chunkXs.size() >= chunk)
            flush();
    }
    flush();
}

std::size_t
DetectorBuilder::profileClassPaths(const nn::Dataset &train,
                                   int max_per_class)
{
    // Validate every label up front so a bad dataset throws with the
    // store untouched (samplesSeen/aggregate do not bounds-check).
    for (const auto &s : train)
        if (s.label >= mdl.store.numClasses())
            throw std::out_of_range(
                "DetectorBuilder::profileClassPaths: label " +
                std::to_string(s.label) + " >= numClasses() " +
                std::to_string(mdl.store.numClasses()));

    // Aggregation replays each chunk in dataset order with the same
    // cap/correctness checks the sequential loop applies, so the class
    // paths are identical to it. Admission skips classes already full
    // before the chunk forms; a sample whose class fills up mid-chunk
    // is forwarded wastefully but never aggregated.
    std::size_t aggregated = 0;
    const auto cap = static_cast<std::size_t>(max_per_class);
    auto has_room = [&](std::size_t label) {
        return mdl.store.samplesSeen(label) < cap;
    };
    forEachPath(
        train.size(),
        [&](std::size_t i) -> const nn::Tensor * {
            return has_room(train[i].label) ? &train[i].input : nullptr;
        },
        [&](std::size_t i, std::size_t pred, const BitVector &path) {
            const std::size_t label = train[i].label;
            // Only correct predictions define the canary.
            if (has_room(label) && pred == label) {
                mdl.store.aggregate(label, path);
                ++aggregated;
            }
        });
    return aggregated;
}

void
DetectorBuilder::featuresBatch(const std::vector<nn::Tensor> &xs,
                               classify::FeatureMatrix &rows,
                               std::vector<std::size_t> *predicted)
{
    rows.resize(xs.size());
    if (predicted)
        predicted->resize(xs.size());
    forEachPath(
        xs.size(), [&](std::size_t i) { return &xs[i]; },
        [&](std::size_t i, std::size_t pred, const BitVector &path) {
            if (predicted)
                (*predicted)[i] = pred;
            rows[i] = path::computeSimilarity(path,
                                              mdl.store.classPath(pred),
                                              mdl.extractor().layout())
                          .toVector();
        });
}

void
DetectorBuilder::fitClassifier(const classify::FeatureMatrix &benign,
                               const classify::FeatureMatrix &adversarial)
{
    classify::FeatureMatrix x;
    std::vector<int> y;
    x.reserve(benign.size() + adversarial.size());
    for (const auto &row : benign) {
        x.push_back(row);
        y.push_back(0);
    }
    for (const auto &row : adversarial) {
        x.push_back(row);
        y.push_back(1);
    }
    mdl.rf.fit(x, y);
}

} // namespace ptolemy::core
