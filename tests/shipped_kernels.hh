/**
 * @file
 * The shipped kernels/NAME.sir programs as test instances: parsed from
 * KERNEL_DIR (a compile definition of every test binary that includes
 * this header) with small, hand-checkable live-ins and inputs. Shared
 * by tests/test_golden_stats.cc, tests/test_golden_graphs.cc and
 * tests/test_trace.cc.
 */

#ifndef PIPESTITCH_TESTS_SHIPPED_KERNELS_HH
#define PIPESTITCH_TESTS_SHIPPED_KERNELS_HH

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scalar/interpreter.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

namespace pipestitch::shipped {

using Word = sir::Word;

/** Parse kernels/@p file, bind @p liveIns by name (unbound ones are
 *  0) and initialize the named arrays from @p inits. */
inline workloads::KernelInstance
loadSirKernel(const std::string &file,
              const std::map<std::string, Word> &liveIns,
              const std::map<std::string, std::vector<Word>> &inits)
{
    std::string path = std::string(KERNEL_DIR) + "/" + file;
    std::ifstream in(path);
    if (!in.good())
        ADD_FAILURE() << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    auto parsed = sir::parseSir(ss.str(), path);

    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = std::move(parsed.program);
    for (sir::Reg r : kernel.prog.liveIns) {
        const std::string &name =
            kernel.prog.regNames[static_cast<size_t>(r)];
        auto it = liveIns.find(name);
        kernel.liveIns.push_back(it == liveIns.end() ? 0
                                                     : it->second);
    }
    kernel.memory = scalar::makeMemory(kernel.prog);
    for (const auto &[name, values] : inits) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end()) {
            ADD_FAILURE() << "no array " << name;
            continue;
        }
        const auto &arr = kernel.prog.array(it->second);
        EXPECT_LE(values.size(), static_cast<size_t>(arr.words));
        for (size_t i = 0; i < values.size(); i++)
            kernel.memory[static_cast<size_t>(arr.base) + i] =
                values[i];
    }
    return kernel;
}

/** Every shipped .sir kernel with the inputs the golden tests use. */
inline std::vector<workloads::KernelInstance>
kernels()
{
    std::vector<workloads::KernelInstance> out;

    out.push_back(loadSirKernel(
        "vector_scale.sir", {{"n", 4}}, {{"x", {1, 2, 3, 4}}}));
    out.push_back(loadSirKernel(
        "spmv.sir", {{"n", 4}},
        {{"rowptr", {0, 2, 3, 5, 6}},
         {"colidx", {0, 2, 1, 0, 3, 2}},
         {"val", {5, 1, 7, 2, 4, 3}},
         {"x", {1, 2, 3, 4}}}));
    out.push_back(loadSirKernel(
        "histogram.sir", {{"n", 8}},
        {{"data", {3, 3, 5, 0, 7, 3, 1, 5}}}));
    out.push_back(loadSirKernel(
        "prefix_count.sir", {{"n", 8}, {"threshold", 2}},
        {{"seeds", {100, 7, 900, 33, 5, 64, 1, 250}}}));
    {
        // Linked lists: row i chains through next[] from map[i];
        // every chain stays inside [0, 64) and terminates.
        std::vector<Word> map(8), next(64), val(64);
        for (int i = 0; i < 8; i++)
            map[static_cast<size_t>(i)] = i * 8;
        map[7] = -1; // one empty row
        for (int j = 0; j < 64; j++) {
            next[static_cast<size_t>(j)] =
                (j + 1) % 8 == 0 ? -1 : j + 1;
            val[static_cast<size_t>(j)] = (j * 5 + 1) % 4;
        }
        out.push_back(loadSirKernel(
            "count_nonzeros.sir", {{"N", 8}},
            {{"map", map}, {"next", next}, {"val", val}}));
    }
    {
        // Serial loop-carried chain: the recurrence-bound corner
        // (see kernels/loop_chain.sir and the PS-T calibration).
        std::vector<Word> x(16);
        for (int i = 0; i < 16; i++)
            x[static_cast<size_t>(i)] = i + 1;
        out.push_back(loadSirKernel(
            "loop_chain.sir", {{"n", 16}, {"scale", 3}},
            {{"x", x}}));
    }
    return out;
}

} // namespace pipestitch::shipped

#endif // PIPESTITCH_TESTS_SHIPPED_KERNELS_HH
