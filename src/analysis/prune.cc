#include "analysis/prune.h"

#include <algorithm>

namespace amnesiac {

namespace {

struct StoreSite
{
    std::uint32_t pc;
    std::uint64_t lo;
    std::uint64_t hi;
};

bool
overlaps(const StoreSite &s, std::uint64_t lo, std::uint64_t hi)
{
    return s.lo <= hi && lo <= s.hi;
}

}  // namespace

StaticPruneResult
computeStaticPrune(const Program &program, const DataflowFacts &facts,
                   const StaticPruneOptions &options)
{
    const std::uint32_t n = facts.cfg.size();
    StaticPruneResult result;
    result.skipSiteAnalysis.assign(n, 0);
    result.opaqueProduction.assign(n, 0);

    std::vector<StoreSite> stores;
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        if (program.code[pc].op != Opcode::St)
            continue;
        if (auto region = facts.accessRegion(pc))
            stores.push_back({pc, region->first, region->second});
    }

    double max_eld = 0.0;
    double rtn_rcmp_nj = 0.0;
    if (options.energy != nullptr) {
        // The eld budget is some level's load energy (per-site mix,
        // global residence, or the oracle's memory-level bound); its
        // maximum over all levels upper-bounds every variant, even
        // under non-monotone fuzz configurations.
        for (std::size_t i = 0; i < kNumMemLevels; ++i)
            max_eld = std::max(
                max_eld,
                options.energy->loadEnergy(static_cast<MemLevel>(i)));
        rtn_rcmp_nj =
            options.energy->instrEnergy(InstrCategory::Rtn) +
            options.energy->instrEnergy(InstrCategory::Rcmp);
    }
    // The builder's budget bound rejects a slice in both sets; the
    // profitability filter only in the Compiler set. A floor at the
    // larger of the two margins is therefore safe for both sets.
    const double floor_margin =
        std::max(options.budgetMargin, options.profitabilityMargin);

    for (std::uint32_t pc = 0; pc < n; ++pc) {
        if (program.code[pc].op != Opcode::Ld)
            continue;

        // Rule A — dead site: never executes, so it is never a
        // candidate in the first place.
        if (!facts.reached(pc)) {
            result.skipSiteAnalysis[pc] = 1;
            if (facts.cfg.reachable(pc))
                ++result.prunedSites;
            continue;
        }

        // Rule B — cold site: the execution-count bound is below the
        // compiler's cold threshold, so the (still-recorded) dynamic
        // count rejects it identically.
        if (facts.execBound[pc] < options.minSiteCount) {
            result.skipSiteAnalysis[pc] = 1;
            ++result.prunedSites;
            continue;
        }

        auto region = facts.accessRegion(pc);
        if (!region)
            continue;  // defensive; reached loads always have a region

        bool any_alias = false;
        bool any_sliceable_root = false;
        double min_root_nj = 0.0;
        bool have_root_nj = false;
        for (const StoreSite &s : stores) {
            if (!overlaps(s, region->first, region->second))
                continue;
            any_alias = true;
            Reg stored = program.code[s.pc].rs2;
            for (std::uint32_t d : facts.reachingDefs(s.pc, stored)) {
                Opcode op = program.code[d].op;
                if (!isSliceable(op))
                    continue;
                any_sliceable_root = true;
                if (options.energy != nullptr) {
                    double nj =
                        options.energy->instrEnergy(categoryOf(op));
                    min_root_nj =
                        have_root_nj ? std::min(min_root_nj, nj) : nj;
                    have_root_nj = true;
                }
            }
        }

        // Rule C — read-only: no store can write the loaded bytes, so
        // the value always traces to the initial image; the tracker
        // reports an untracked origin and the site dies on stability.
        //
        // Rule D (root existence) — every producing store holds a value
        // with no sliceable definition, so no producer tree exists and
        // the site dies the same way.
        if (!any_alias || !any_sliceable_root) {
            result.skipSiteAnalysis[pc] = 1;
            ++result.prunedSites;
            continue;
        }

        // Rule D (energy floor) — even the cheapest conceivable slice
        // (one root + RTN, guarded by RCMP) exceeds what either dynamic
        // filter could ever accept against the largest possible budget.
        if (options.energy != nullptr && have_root_nj &&
            min_root_nj + rtn_rcmp_nj > floor_margin * max_eld) {
            result.skipSiteAnalysis[pc] = 1;
            ++result.prunedSites;
            continue;
        }
    }

    // Value-flow closure: mark every production whose value might still
    // appear in a surviving site's dependence tree. Values flow into a
    // tree through stores that may alias the site's load, then backward
    // through register operands of sliceable producers — and across
    // memory again whenever a producer input is itself a load. Loads
    // reached here contribute their producers regardless of their own
    // prune status: their VALUE flows even when their site is refuted.
    std::vector<std::uint8_t> marked(n, 0);
    std::vector<std::uint8_t> load_seen(n, 0);
    std::vector<std::uint32_t> def_work;
    std::vector<std::uint32_t> load_work;

    auto push_def = [&](std::uint32_t d) {
        if (d >= n)
            return;
        Opcode op = program.code[d].op;
        if (isSliceable(op)) {
            if (!marked[d]) {
                marked[d] = 1;
                def_work.push_back(d);
            }
        } else if (op == Opcode::Ld) {
            if (!load_seen[d]) {
                load_seen[d] = 1;
                load_work.push_back(d);
            }
        }
    };

    for (std::uint32_t pc = 0; pc < n; ++pc) {
        if (program.code[pc].op != Opcode::Ld ||
            result.skipSiteAnalysis[pc])
            continue;
        if (!load_seen[pc]) {
            load_seen[pc] = 1;
            load_work.push_back(pc);
        }
    }

    while (!def_work.empty() || !load_work.empty()) {
        if (!def_work.empty()) {
            std::uint32_t d = def_work.back();
            def_work.pop_back();
            const Instruction &ins = program.code[d];
            int sources = numSources(ins.op);
            if (sources >= 1)
                for (std::uint32_t dd : facts.reachingDefs(d, ins.rs1))
                    push_def(dd);
            if (sources >= 2)
                for (std::uint32_t dd : facts.reachingDefs(d, ins.rs2))
                    push_def(dd);
            continue;
        }
        std::uint32_t l = load_work.back();
        load_work.pop_back();
        auto region = facts.accessRegion(l);
        if (!region)
            continue;  // unreachable load: reads nothing at runtime
        for (const StoreSite &s : stores) {
            if (!overlaps(s, region->first, region->second))
                continue;
            Reg stored = program.code[s.pc].rs2;
            for (std::uint32_t d : facts.reachingDefs(s.pc, stored))
                push_def(d);
        }
    }

    for (std::uint32_t pc = 0; pc < n; ++pc) {
        if (!isSliceable(program.code[pc].op) || marked[pc])
            continue;
        result.opaqueProduction[pc] = 1;
        if (facts.reached(pc))
            ++result.prunedProductions;
    }
    return result;
}

}  // namespace amnesiac
