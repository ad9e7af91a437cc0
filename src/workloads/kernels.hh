/**
 * @file
 * The paper's benchmark kernels (Table 1), written against the
 * foreach programming model:
 *
 *   DMM      dense matrix multiply          (regular, unthreaded)
 *   SpMV     CSR matrix × dense vector      (regular, unthreaded)
 *   Dither   1-D error-diffusion dithering  (threaded rows)
 *   SpSlice  sparse matrix slicing          (threaded rows)
 *   SpMSpVd  sparse×sparse vector, dense out(threaded rows)
 *   SpMSpMd  sparse×sparse matrix, dense out(threaded dot products)
 *
 * Address arithmetic uses shifts for power-of-two dimensions (the
 * strength reduction any real compiler performs), keeping the two
 * multiplier PEs free for data products.
 */

#ifndef PIPESTITCH_WORKLOADS_KERNELS_HH
#define PIPESTITCH_WORKLOADS_KERNELS_HH

#include <string>
#include <vector>

#include "scalar/interpreter.hh"
#include "sir/parser.hh"
#include "sir/program.hh"
#include "workloads/matrix.hh"

namespace pipestitch::workloads {

/** A kernel plus its bound parameters and initialized memory. */
struct KernelInstance
{
    std::string name;
    sir::Program prog;
    std::vector<Word> liveIns;
    scalar::MemImage memory;
};

/** Live-in values and initial array contents, keyed by SIR name. */
using NamedWords = std::vector<std::pair<std::string, Word>>;
using NamedArrays =
    std::vector<std::pair<std::string, std::vector<Word>>>;

/**
 * Bind a parsed SIR kernel to named live-in values and initial array
 * contents — the one binder behind `pstool --livein/--init` and the
 * serve daemon's "liveins"/"init". A later binding of a name wins
 * over an earlier one. An unbound live-in is 0, and its name is
 * appended to @p unbound when that is non-null. @return false with
 * @p error set (and @p out unspecified) for a live-in or array the
 * kernel does not declare, or more values than an array holds; the
 * error names the binding as the serve daemon's request fields do
 * ("liveins.NAME", "init.NAME").
 */
bool bindKernel(const sir::ParseResult &parsed,
                const NamedWords &liveIns, const NamedArrays &inits,
                KernelInstance &out, std::string &error,
                std::vector<std::string> *unbound = nullptr);

/** Dense n×n matrix multiply (n power of two). */
KernelInstance makeDmm(int n, uint64_t seed);

/** CSR (n×n, given sparsity) times dense vector. */
KernelInstance makeSpmv(int n, double sparsity, uint64_t seed);

/** Error-diffusion dithering of a width×height image
 *  (width power of two; rows are independent foreach threads). */
KernelInstance makeDither(int width, int height, uint64_t seed);

/** Slice rows/cols [n/4, 3n/4) of a CSR matrix into a dense block. */
KernelInstance makeSpSlice(int n, double sparsity, uint64_t seed);

/** Sparse matrix × sparse vector with dense output. */
KernelInstance makeSpMSpVd(int n, double sparsity, uint64_t seed);

/** Sparse matrix × sparse matrix with dense output
 *  (inner-product over A rows and B^T rows). */
KernelInstance makeSpMSpMd(int n, double sparsity, uint64_t seed);

/**
 * 3×3 dense convolution over a width×height image (valid region
 * only). Not in the paper's table — included to exercise four-deep
 * affine loop nests, which consume the fabric's entire stream-PE
 * budget. Regular, II = 1, unthreaded.
 */
KernelInstance makeConv3x3(int width, int height, uint64_t seed);

/**
 * Fused sparsify/ReLU: dense vector → sparse (idx, val) plus count
 * (the DNN's inter-layer kernel; sequential, unthreaded).
 */
KernelInstance makeSparsify(const std::vector<Word> &dense);

/**
 * SpMSpVd instance over explicit operands (used by the DNN, where
 * the matrix is a layer's weights and the vector the activations).
 */
KernelInstance makeSpMSpVdFrom(const Csr &matrix,
                               const SparseVec &vec,
                               const std::string &name);

/**
 * Data-parallel SpMV shards for batched tiled execution
 * (core/batch.hh): @p count instances sharing one program and one
 * CSR structure (from @p seed), each with its own dense input
 * vector. Because only memory contents differ, all shards execute
 * against a single prepared mapping — one per tile replica.
 */
std::vector<KernelInstance> makeSpmvShards(int n, double sparsity,
                                           uint64_t seed, int count);

/** All six standalone kernels at the paper's Table 1 parameters. */
std::vector<KernelInstance> paperKernels(uint64_t seed = 1);

/** Reduced-size variants of the same kernels (fast tests). */
std::vector<KernelInstance> smallKernels(uint64_t seed = 1);

} // namespace pipestitch::workloads

#endif // PIPESTITCH_WORKLOADS_KERNELS_HH
