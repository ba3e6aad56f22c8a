/**
 * @file
 * Runtime profiler (the paper's Pin-based profiling pass, §4): per-load
 * residence statistics (Pr_Li, §3.1.1), dynamic backward-slice shapes and
 * their stability, live-operand statistics, and value locality (§5.6).
 *
 * Every per-instruction table is a plain vector indexed by pc, sized
 * from the program at the first callback: programs hold at most a few
 * hundred static instructions, so dense tables beat hashing.
 */

#ifndef AMNESIAC_PROFILE_PROFILER_H
#define AMNESIAC_PROFILE_PROFILER_H

#include <array>
#include <cstdint>
#include <vector>

#include "profile/dep_tracker.h"
#include "sim/machine.h"

namespace amnesiac {

/** Tuning for the profiling pass. */
struct ProfilerConfig
{
    /** Tree-walk caps (also cap treeSignature). Deep enough to cover
     * the paper's longest observed slices (~70 instructions, Fig 6). */
    int maxTreeDepth = 80;
    int maxTreeNodes = 256;
    /** Distinct tree shapes remembered per site before giving up. */
    std::size_t maxDistinctTrees = 8;
    /**
     * Static-pruner masks, indexed by pc (empty = profile everything).
     * A set `opaqueProduction` bit replaces that production with a
     * shared sentinel node (no ALU mirroring, no per-instance node
     * linking); a set `skipSiteAnalysis` bit suppresses tree analysis
     * at that load site (residence counts and value locality are still
     * recorded). Both come with a conservative-only contract: the
     * pruner only sets bits it proved cannot change which candidates
     * the compiler selects, so profiles of surviving sites are
     * byte-identical with and without the masks.
     */
    std::vector<std::uint8_t> opaqueProduction;
    std::vector<std::uint8_t> skipSiteAnalysis;
};

/** One remembered backward-slice shape at a load site. */
struct CandidateTree
{
    std::uint64_t signature = 0;
    std::uint64_t count = 0;
    /** First dynamic instance with this signature (pinned in the
     * profiler's DepTracker, so it stays valid for the whole
     * profiling run). */
    NodeId representative = kNoNode;
};

/**
 * How often a boundary operand's register held the produced input
 * *value* at load time (→ Live sourcing legality, §2.2 case ii).
 * Value equality (not production identity) is the right test: a
 * re-produced equal value recomputes correctly, which is what makes
 * pure-function-of-index slices free of non-recomputable inputs.
 */
struct OperandLiveStat
{
    std::uint64_t matches = 0;
    std::uint64_t seen = 0;

    double
    rate() const
    {
        return seen == 0
            ? 0.0 : static_cast<double>(matches) / static_cast<double>(seen);
    }
};

/** Everything the amnesic compiler needs to know about one load site. */
struct SiteProfile
{
    std::uint32_t pc = 0;
    std::uint64_t count = 0;
    /** Dynamic instances serviced by L1 / L2 / Memory. */
    std::array<std::uint64_t, kNumMemLevels> byLevel{};
    std::vector<CandidateTree> trees;
    /** Site saw more distinct shapes than maxDistinctTrees. */
    bool treeOverflow = false;
    /** Instances whose loaded value had no sliceable producer. */
    std::uint64_t untracked = 0;
    /** Value of the latest instance, and instances that repeated the
     * value of the one before (§5.6 last-value locality). */
    std::uint64_t lastValue = 0;
    std::uint64_t repeats = 0;
    /** Live-operand statistics indexed 2 * node pc + operand index;
     * allocated at the site's first tree analysis. */
    std::vector<OperandLiveStat> liveStats;

    /** Live statistics of operand k of the production at node_pc
     * (all zero when never seen). */
    OperandLiveStat operandLive(std::uint32_t node_pc, int k) const;

    /** Pr_Li: probability the load is serviced at a level (§3.1.1). */
    double prLevel(MemLevel level) const;

    /** Most frequent tree shape (nullptr when none recorded). */
    const CandidateTree *topTree() const;

    /** Share of instances matching the top tree shape. */
    double stability() const;

    /**
     * Value locality in percent: 100 * (instances equal to the previous
     * instance's value) / (instances after the first); 0 for a site
     * that ran fewer than twice.
     */
    double valueLocalityPercent() const;
};

/**
 * Machine observer implementing the profiling pass. Attach to a classic
 * Machine, run the program, then hand the result to the amnesic
 * compiler.
 */
class Profiler : public MachineObserver
{
  public:
    explicit Profiler(const ProfilerConfig &config = {});

    void onExec(const ExecutionEngine &m, std::uint32_t pc,
                const Instruction &instr) override;
    void onLoad(const ExecutionEngine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;
    void onStore(const ExecutionEngine &m, std::uint32_t pc, std::uint64_t addr,
                 std::uint64_t value, MemLevel serviced) override;

    /** Profile of one load site (nullptr if the site never executed). */
    const SiteProfile *site(std::uint32_t pc) const;

    /** All profiled load sites (deterministic order: ascending pc). */
    std::vector<const SiteProfile *> sites() const;

    /** Dynamic execution count of any static instruction. */
    std::uint64_t execCount(std::uint32_t pc) const;

    /** The tracker owning every candidate tree's representative nodes. */
    const DepTracker &tracker() const { return _tracker; }

    /**
     * Tracker mirroring for one pre-execution callback — shared by the
     * full profiler and tracker-only measurement observers so their
     * producer state can never drift apart.
     */
    static void mirrorExec(DepTracker &tracker, const ProfilerConfig &config,
                           const ExecutionEngine &m, std::uint32_t pc,
                           const Instruction &instr);

  private:
    void analyzeTree(const ExecutionEngine &m, SiteProfile &site,
                     NodeId root);
    std::uint64_t walkTree(const ExecutionEngine &m, SiteProfile &site,
                           NodeId id, int depth_left, int &sig_nodes_left,
                           int &live_nodes_left);

    ProfilerConfig _config;
    DepTracker _tracker;
    /** Indexed by pc, sized at the first onExec (which precedes every
     * onLoad). A site with count == 0 never executed. */
    std::vector<SiteProfile> _sites;
    std::vector<std::uint64_t> _execCounts;
};

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_PROFILER_H
