#include "workloads/dnn.hh"

#include "base/logging.hh"
#include "core/system.hh"
#include "workloads/kernels.hh"

namespace pipestitch::workloads {

int64_t
DnnModel::footprintBytes() const
{
    int64_t words = 0;
    for (const auto &w : weights)
        words += w.words();
    for (int d : config.dims)
        words += 2 * d; // worst-case sparse activations (idx + val)
    return words * 4;
}

DnnModel
buildDnn(const DnnConfig &config)
{
    ps_assert(config.dims.size() ==
                  config.weightSparsity.size() + 1,
              "need one sparsity per layer");
    DnnModel model;
    model.config = config;
    Rng rng(config.seed);
    for (size_t l = 0; l + 1 < config.dims.size(); l++) {
        model.weights.push_back(
            randomCsr(config.dims[l + 1], config.dims[l],
                      config.weightSparsity[l], rng, -4, 4));
    }
    model.input = randomSparseVec(config.dims[0],
                                  config.inputSparsity, rng, 1, 8);
    return model;
}

namespace {

/** Extract the dense layer output from a finished memory image. */
std::vector<Word>
denseOut(const sir::Program &prog, const scalar::MemImage &mem,
         int rows)
{
    // The SpMSpVd "out" array is the program's last array.
    const auto &arr = prog.arrays.back();
    ps_assert(arr.name == "out", "unexpected kernel layout");
    ps_assert(arr.words >= rows, "output array too small");
    std::vector<Word> out(static_cast<size_t>(rows));
    for (int i = 0; i < rows; i++)
        out[static_cast<size_t>(i)] =
            mem[static_cast<size_t>(arr.base + i)];
    return out;
}

/** Extract the sparse activation from a finished sparsify run. */
SparseVec
sparseOut(const sir::Program &prog, const scalar::MemImage &mem,
          int length)
{
    const sir::Array *sidx = nullptr, *sval = nullptr,
                     *cnt = nullptr;
    for (const auto &a : prog.arrays) {
        if (a.name == "sidx")
            sidx = &a;
        if (a.name == "sval")
            sval = &a;
        if (a.name == "count")
            cnt = &a;
    }
    ps_assert(sidx && sval && cnt, "unexpected sparsify layout");
    SparseVec v;
    v.length = length;
    Word n = mem[static_cast<size_t>(cnt->base)];
    for (Word i = 0; i < n; i++) {
        v.idx.push_back(mem[static_cast<size_t>(sidx->base + i)]);
        v.val.push_back(mem[static_cast<size_t>(sval->base + i)]);
    }
    return v;
}

/** Add one kernel run's cycles, time and energy to @p total. */
void
accumulate(DnnInference &total, double cycles, double seconds,
           const energy::EnergyBreakdown &e)
{
    total.cycles += cycles;
    total.seconds += seconds;
    total.energy.cgraPj += e.cgraPj;
    total.energy.memPj += e.memPj;
    total.energy.scalarPj += e.scalarPj;
    total.energy.otherPj += e.otherPj;
}

/**
 * The inference loop both targets share: each layer's SpMSpVd, then
 * (between layers) the sparsify kernel. @p run executes one kernel,
 * accumulates it into the total and returns its final memory image,
 * so every sum runs in layer order on either target.
 */
template <typename RunKernel>
DnnInference
runDnn(const DnnModel &model, std::string system, RunKernel run)
{
    DnnInference total;
    total.system = std::move(system);
    SparseVec act = model.input;
    const size_t layers = model.weights.size();
    for (size_t l = 0; l < layers; l++) {
        const Csr &w = model.weights[l];
        auto layer =
            makeSpMSpVdFrom(w, act, csprintf("dnn_layer%zu", l));
        auto dense = denseOut(layer.prog, run(layer, total), w.rows);
        if (l + 1 == layers) {
            total.logits = dense;
            break;
        }
        auto sparsify = makeSparsify(dense);
        act = sparseOut(sparsify.prog, run(sparsify, total), w.rows);
    }
    return total;
}

} // namespace

DnnInference
runDnnOnFabric(const DnnModel &model, compiler::ArchVariant variant,
               int bufferDepth)
{
    RunConfig cfg;
    cfg.variant = variant;
    cfg.sim.bufferDepth = bufferDepth;
    return runDnnOnFabric(model, cfg);
}

DnnInference
runDnnOnFabric(const DnnModel &model, const RunConfig &cfg)
{
    return runDnn(model, compiler::archVariantName(cfg.variant),
                  [&](const KernelInstance &k, DnnInference &total) {
                      FabricRun r = runOnFabric(k, cfg);
                      accumulate(total, static_cast<double>(r.cycles()),
                                 r.seconds, r.energy);
                      return std::move(r.memory);
                  });
}

DnnInference
runDnnOnScalar(const DnnModel &model,
               const scalar::ScalarProfile &profile)
{
    return runDnn(model, profile.name,
                  [&](const KernelInstance &k, DnnInference &total) {
                      ScalarRun r = runOnScalar(k, profile);
                      accumulate(total, r.cycles, r.seconds, r.energy);
                      return std::move(r.memory);
                  });
}

} // namespace pipestitch::workloads
