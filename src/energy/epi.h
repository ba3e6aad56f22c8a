/**
 * @file
 * Energy-per-instruction and latency model (§3.1.1, §4, Table 3).
 *
 * All EPI values are all-inclusive per dynamic instruction
 * (fetch+decode+execute), matching the Shao-Brooks style measurements
 * the paper calibrates against. Memory instructions compose the
 * per-level access energies of the hierarchy they traverse.
 */

#ifndef AMNESIAC_ENERGY_EPI_H
#define AMNESIAC_ENERGY_EPI_H

#include <array>
#include <cstdint>

#include "isa/opcode.h"
#include "mem/hierarchy.h"

namespace amnesiac {

/**
 * Tunable cost parameters. Defaults reproduce the paper's simulated
 * architecture (Table 3, 22 nm, 1.09 GHz) and the §5.5 default
 * EPI_nonmem = 0.45 nJ.
 */
struct EnergyConfig
{
    // --- per-level access energy, nJ (Table 3) ---
    double l1AccessNj = 0.88;
    double l2AccessNj = 7.72;
    double memReadNj = 52.14;
    double memWriteNj = 62.14;
    /** Hist is conservatively modeled after L1-D (§4). */
    double histAccessNj = 0.88;
    /**
     * Core-pipeline share (fetch/decode/AGU) of a memory instruction's
     * EPI, on top of the hierarchy traversal. Matches the Shao-Brooks
     * accounting where every instruction carries a core component;
     * without it an L1 hit would be cheaper than any single ALU
     * operation, which their measurements contradict.
     */
    double memCoreNj = 0.45;

    // --- per-level round-trip latency, cycles at 1.09 GHz (Table 3:
    //     3.66 ns, 24.77 ns, 100 ns) ---
    std::uint32_t l1Cycles = 4;
    std::uint32_t l2Cycles = 27;
    std::uint32_t memCycles = 109;
    std::uint32_t histCycles = 4;

    // --- non-memory EPI, nJ ---
    double intAluNj = 0.45;
    double intMulNj = 0.90;
    double intDivNj = 1.80;
    double fpAluNj = 0.60;
    double fpMulNj = 0.90;
    double fpDivNj = 2.20;
    double branchNj = 0.45;
    double jumpNj = 0.45;
    double nopNj = 0.20;

    /**
     * Global scale on every arithmetic/logic EPI — the paper's R knob
     * (§5.5): R = nonMemScale * EPI_nonmem,default / EPI_ld,mem.
     */
    double nonMemScale = 1.0;

    double frequencyGhz = 1.09;
};

/**
 * Converts dynamic events (instructions, hierarchy accesses, amnesic
 * structure accesses) into energy (nJ) and latency (cycles).
 *
 * Every per-category/per-level cost is resolved into flat tables once
 * at construction; the accessors below are array lookups, cheap enough
 * for the interpreter's per-instruction hot path. The original
 * switch-based derivations survive as the `*Ref()` reference model —
 * they are the single source of truth the tables are built from (so
 * table values are bit-identical doubles), serve as debug-build
 * validators, and keep the canonical panic diagnostics for categories
 * that have no flat cost (Load/Store need a service level, probes stop
 * at a cache level, ...).
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyConfig &config = {});

    /**
     * Energy of one non-memory instruction.
     * Load/Store categories are rejected — use loadEnergy()/storeEnergy().
     */
    double instrEnergy(InstrCategory cat) const
    {
        auto i = static_cast<std::size_t>(cat);
        if (i >= kNumCats || !_instrValid[i])
            return instrEnergyRef(cat);  // canonical panic
        return _instrNj[i];
    }

    /** Latency (cycles) of one non-memory instruction. */
    std::uint32_t instrLatency(InstrCategory cat) const
    {
        auto i = static_cast<std::size_t>(cat);
        if (i >= kNumCats || !_instrValid[i])
            return instrLatencyRef(cat);
        return _instrCycles[i];
    }

    /** Cumulative energy of a load serviced at `level` (probes included). */
    double loadEnergy(MemLevel level) const
    {
        auto i = static_cast<std::size_t>(level);
        return i < kNumMemLevels ? _loadNj[i] : loadEnergyRef(level);
    }

    /** Round-trip latency of a load serviced at `level`. */
    std::uint32_t loadLatency(MemLevel level) const
    {
        auto i = static_cast<std::size_t>(level);
        return i < kNumMemLevels ? _loadCycles[i] : loadLatencyRef(level);
    }

    /** Energy of a store serviced at `level` (write-allocate fill). */
    double storeEnergy(MemLevel level) const
    {
        auto i = static_cast<std::size_t>(level);
        return i < kNumMemLevels ? _storeNj[i] : storeEnergyRef(level);
    }

    /** Latency charged to a store serviced at `level`. */
    std::uint32_t storeLatency(MemLevel level) const
    {
        auto i = static_cast<std::size_t>(level);
        return i < kNumMemLevels ? _storeCycles[i] : storeLatencyRef(level);
    }

    /** Energy of a dirty write-back *into* `level` (L2 or Memory). */
    double writebackEnergy(MemLevel into) const
    {
        auto i = static_cast<std::size_t>(into);
        if (i >= kNumMemLevels || into == MemLevel::L1)
            return writebackEnergyRef(into);
        return _writebackNj[i];
    }

    /**
     * Energy of probing the hierarchy down to `level` inclusive without
     * being serviced (the FLC/LLC policy check cost, §3.3.1).
     */
    double probeEnergy(MemLevel down_to) const
    {
        auto i = static_cast<std::size_t>(down_to);
        if (i >= kNumMemLevels || down_to == MemLevel::Memory)
            return probeEnergyRef(down_to);
        return _probeNj[i];
    }

    /** Latency of the same probe. */
    std::uint32_t probeLatency(MemLevel down_to) const
    {
        auto i = static_cast<std::size_t>(down_to);
        if (i >= kNumMemLevels || down_to == MemLevel::Memory)
            return probeLatencyRef(down_to);
        return _probeCycles[i];
    }

    // --- reference model (switch-based derivations; see class docs) ---
    double instrEnergyRef(InstrCategory cat) const;
    std::uint32_t instrLatencyRef(InstrCategory cat) const;
    double loadEnergyRef(MemLevel level) const;
    std::uint32_t loadLatencyRef(MemLevel level) const;
    double storeEnergyRef(MemLevel level) const;
    std::uint32_t storeLatencyRef(MemLevel level) const;
    double writebackEnergyRef(MemLevel into) const;
    double probeEnergyRef(MemLevel down_to) const;
    std::uint32_t probeLatencyRef(MemLevel down_to) const;

    /** Hist read/write cost (modeled after L1-D, §4). */
    double histAccessEnergy() const { return _config.histAccessNj; }

    /** Convert a cycle count to seconds at the configured frequency. */
    double cyclesToSeconds(std::uint64_t cycles) const;

    /**
     * The paper's §5.5 communication-to-computation ratio:
     * R = EPI_int-alu / EPI_load-from-memory.
     */
    double ratioR() const;

    const EnergyConfig &config() const { return _config; }

    /** Copy of this model with a different non-memory scale (Table 6). */
    EnergyModel withNonMemScale(double scale) const;

  private:
    static constexpr std::size_t kNumCats =
        static_cast<std::size_t>(InstrCategory::NumCategories);

    void buildTables();

    EnergyConfig _config;
    // Flat cost tables resolved from the reference model at
    // construction (see class docs). _instrValid is false exactly for
    // the categories instrEnergyRef() rejects (Load/Store).
    std::array<double, kNumCats> _instrNj{};
    std::array<std::uint32_t, kNumCats> _instrCycles{};
    std::array<bool, kNumCats> _instrValid{};
    std::array<double, kNumMemLevels> _loadNj{};
    std::array<std::uint32_t, kNumMemLevels> _loadCycles{};
    std::array<double, kNumMemLevels> _storeNj{};
    std::array<std::uint32_t, kNumMemLevels> _storeCycles{};
    std::array<double, kNumMemLevels> _writebackNj{};  ///< L1 slot unused
    std::array<double, kNumMemLevels> _probeNj{};      ///< Memory slot unused
    std::array<std::uint32_t, kNumMemLevels> _probeCycles{};
};

}  // namespace amnesiac

#endif  // AMNESIAC_ENERGY_EPI_H
