/**
 * @file
 * Mimics of the 11 responsive benchmarks of the paper's evaluation
 * (§5.1: mcf, sphinx3/sx, cg, is, canneal/ca, facesim/fs, ferret/fe,
 * raytrace/rt, backprop/bp, bfs, srad/sr). Each spec is tuned to the
 * published characterization of that benchmark's swapped loads:
 * residence profile (Table 5), RSlice length (Fig 6), non-recomputable
 * input share (Fig 7), and value locality (Fig 8). See DESIGN.md §2.
 */

#ifndef AMNESIAC_WORKLOADS_PAPER_SUITE_H
#define AMNESIAC_WORKLOADS_PAPER_SUITE_H

#include <vector>

#include "workloads/kernels.h"

namespace amnesiac {

/** The 11 benchmark short names in the paper's plotting order. */
const std::vector<std::string> &paperBenchmarkNames();

/** Spec for one named benchmark (fatal on unknown name). */
WorkloadSpec paperBenchmarkSpec(const std::string &name,
                                std::uint64_t seed = 1);

/** Build one named benchmark. */
Workload makePaperBenchmark(const std::string &name,
                            std::uint64_t seed = 1);

}  // namespace amnesiac

#endif  // AMNESIAC_WORKLOADS_PAPER_SUITE_H
