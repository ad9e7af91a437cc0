/**
 * @file
 * The traced replay of the one-call pipeline.
 *
 * replayRun performs the same stage calls, in the same order and with
 * the same inputs, as pipestitch::prepareKernel and executeOnFabric
 * (core/system.cc) — but through each layer's public function, with a
 * span around every call. Its results must be identical to the
 * one-call API's; the workloads check that with sim::statsEqual and
 * the final memory image.
 *
 * It follows the error-out-param contract of the functions it
 * mirrors: failures fill *error and return a partial run.
 */

#ifndef PSBENCH_REPLAY_HH
#define PSBENCH_REPLAY_HH

#include <string>

#include "core/system.hh"
#include "spans.hh"
#include "workloads/dnn.hh"

namespace psbench {

/** prepareKernel + executeOnFabric, replayed. The result lacks the
 *  copies of the compiled graph and mapping (nothing reads them). */
pipestitch::FabricRun
replayRun(Tracer &t, const pipestitch::workloads::KernelInstance &k,
          const pipestitch::RunConfig &cfg, std::string *error);

/** workloads::runDnnOnFabric replayed layer by layer: SpMSpVd and
 *  sparsify kernels built with makeSpMSpVdFrom / makeSparsify, each
 *  run through replayRun, totals accumulated in the same order. */
pipestitch::workloads::DnnInference
replayDnn(Tracer &t, const pipestitch::workloads::DnnModel &model,
          const pipestitch::RunConfig &cfg, std::string *error);

} // namespace psbench

#endif // PSBENCH_REPLAY_HH
