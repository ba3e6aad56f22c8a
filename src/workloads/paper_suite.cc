#include "workloads/paper_suite.h"

#include "util/logging.h"

namespace amnesiac {

namespace {

/**
 * Tuning notes. Per benchmark, the published characterization targeted:
 *  - residence of swapped loads (Table 5) via array size (logWords),
 *    hot-subset size, and the cold percentage;
 *  - RSlice length (Fig 6) via chainLen (slice ~= chainLen + 1);
 *  - non-recomputable inputs (Fig 7) via the nc flag;
 *  - value locality (Fig 8) via vlShift;
 *  - instruction/energy mix (Table 4) via background work.
 */
WorkloadSpec
specFor(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.seed = seed;

    if (name == "mcf") {
        s.description = "pointer-walk over a memory-resident graph; "
                        "short nc slices, most swapped loads from DRAM";
        s.chains = {
            {4, true, 17, 9, 85, 0, 120000},
            {8, true, 13, 9, 60, 0, 30000},
                    {2, true, 11, 9, 30, 0, 4000},
            {12, true, 11, 9, 30, 0, 3000},
            {24, true, 11, 9, 30, 0, 2000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 17;
        s.fillerAluPerIter = 2;
        s.outStoreLogInterval = 6;
    } else if (name == "sx") {
        s.description = "sphinx3: short slices on hot data plus long "
                        "slices on a DRAM tail the compiler's global "
                        "model misprices";
        s.chains = {
            {2, false, 12, 9, 3, 2, 60000, true},
            {12, true, 17, 9, 45, 1, 80000, true},
            {35, true, 17, 9, 85, 0, 25000},
            {60, true, 17, 9, 90, 2, 10000},
                    {6, true, 11, 9, 20, 1, 4000},
            {25, true, 11, 9, 20, 1, 3000},
            {40, true, 11, 9, 20, 1, 2000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 15;
        s.fillerAluPerIter = 6;
        s.outStoreLogInterval = 5;
    } else if (name == "cg") {
        s.description = "NAS cg: sparse mat-vec flavour, zero value "
                        "locality, medium nc slices";
        s.chains = {
            {3, false, 13, 10, 15, 0, 40000, true},
            {10, true, 17, 9, 55, 0, 50000, true},
            {30, true, 17, 9, 80, 0, 15000},
                    {5, true, 11, 9, 20, 0, 4000},
            {18, true, 11, 9, 20, 0, 3000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 16;
        s.fillerAluPerIter = 4;
        s.outStoreLogInterval = 6;
    } else if (name == "is") {
        s.description = "NAS is: integer bucket sort; tiny REC-free "
                        "slices over L2/DRAM-resident keys";
        s.chains = {
            {3, false, 17, 9, 60, 3, 200000, true},
            {6, false, 14, 9, 50, 3, 50000, true},
                    {2, false, 11, 9, 30, 3, 5000},
            {9, false, 11, 9, 30, 3, 3000},
        };
        s.untrackedLoadsPerIter = 0;
        s.fillerAluPerIter = 2;
        s.outStoreLogInterval = 6;
    } else if (name == "ca") {
        s.description = "canneal: random swaps over a DRAM-resident "
                        "netlist; medium nc slices";
        s.chains = {
            {9, true, 17, 9, 85, 0, 150000, true},
                    {4, true, 11, 9, 30, 0, 4000},
            {15, true, 11, 9, 30, 0, 3000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 16;
        s.fillerAluPerIter = 3;
        s.outStoreLogInterval = 5;
    } else if (name == "fs") {
        s.description = "facesim: long nc slices, high non-mem and "
                        "store shares, split L1/DRAM residence";
        s.chains = {
            {22, true, 17, 10, 40, 1, 60000, true},
            {45, true, 12, 9, 20, 1, 15000},
                    {12, true, 11, 9, 20, 1, 3000},
            {30, true, 11, 9, 20, 1, 3000},
        };
        s.untrackedLoadsPerIter = 2;
        s.untrackedLogWords = 17;
        s.fillerAluPerIter = 12;
        s.outStoreLogInterval = 0;
        s.outLogWords = 16;
    } else if (name == "fe") {
        s.description = "ferret: similarity search; medium nc slices, "
                        "L1-leaning residence with an L2/DRAM tail";
        s.chains = {
            {12, true, 17, 10, 30, 1, 60000, true},
            {30, true, 13, 9, 20, 1, 20000, true},
                    {6, true, 11, 9, 20, 1, 4000},
            {20, true, 11, 9, 20, 1, 3000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 16;
        s.fillerAluPerIter = 9;
        s.outStoreLogInterval = 3;
    } else if (name == "rt") {
        s.description = "raytrace: dominantly L1-resident with rare "
                        "DRAM rays; short nc slices";
        s.chains = {
            {1, false, 12, 10, 5, 2, 60000, true},
            {6, true, 17, 9, 30, 1, 50000, true},
                    {2, true, 11, 9, 10, 2, 5000},
            {9, true, 11, 9, 10, 2, 3000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 15;
        s.fillerAluPerIter = 6;
        s.outStoreLogInterval = 4;
    } else if (name == "bp") {
        s.description = "backprop: weight updates with mid-size nc "
                        "slices and a DRAM quarter";
        s.chains = {
            {7, true, 17, 10, 35, 1, 120000, true},
                    {4, true, 11, 9, 25, 1, 4000},
            {12, true, 11, 9, 25, 1, 3000},
        };
        s.untrackedLoadsPerIter = 0;
        s.fillerAluPerIter = 3;
        s.outStoreLogInterval = 5;
    } else if (name == "bfs") {
        s.description = "bfs: almost entirely L1-resident, one-or-two "
                        "instruction REC-free slices, ~90% value "
                        "locality";
        s.chains = {
            {1, false, 16, 11, 6, 11, 80000, true},
            {1, false, 14, 9, 20, 9, 40000, true},
                    {2, false, 11, 9, 10, 9, 5000},
        };
        s.untrackedLoadsPerIter = 1;
        s.untrackedLogWords = 14;
        s.fillerAluPerIter = 3;
        s.outStoreLogInterval = 8;
    } else if (name == "sr") {
        s.description = "srad: stencil with ~94% L1-resident swapped "
                        "loads, ~99% value locality, heavy stores - the "
                        "benchmark the Compiler policy degrades";
        s.chains = {
            {5, true, 17, 10, 3, 10, 160000, true},
                    {3, true, 11, 9, 10, 9, 4000},
            {6, true, 11, 10, 10, 10, 3000},
        };
        s.untrackedLoadsPerIter = 0;
        s.chaseLoadsPerIter = 1;
        s.chaseLogWords = 16;
        s.fillerAluPerIter = 2;
        s.outStoreLogInterval = 1;
        s.outLogWords = 15;
    } else {
        AMNESIAC_FATAL("unknown paper benchmark '" + name + "'");
    }
    return s;
}

}  // namespace

const std::vector<std::string> &
paperBenchmarkNames()
{
    static const std::vector<std::string> names = {
        "mcf", "sx", "cg", "is", "ca", "fs", "fe", "rt", "bp", "bfs", "sr",
    };
    return names;
}

WorkloadSpec
paperBenchmarkSpec(const std::string &name, std::uint64_t seed)
{
    return specFor(name, seed);
}

Workload
makePaperBenchmark(const std::string &name, std::uint64_t seed)
{
    return buildWorkload(specFor(name, seed));
}

}  // namespace amnesiac
