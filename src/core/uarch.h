/**
 * @file
 * Microarchitectural support for amnesic execution (§3.2, Fig 2):
 * the scratch file (SFile) + renamer that keep recomputation off the
 * architectural register file (Condition-I), the history table (Hist)
 * buffering non-recomputable inputs (Condition-II), and the optional
 * instruction buffer (IBuff).
 */

#ifndef AMNESIAC_CORE_UARCH_H
#define AMNESIAC_CORE_UARCH_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "isa/instruction.h"

namespace amnesiac {

/**
 * Scratch register file. Entries are allocated per recomputing
 * instruction and the whole file is deallocated when the slice
 * finishes — only one RSlice is ever active (§2.3).
 */
class SFile
{
  public:
    explicit SFile(std::uint32_t capacity);

    /** Deallocate everything (slice entry / exit). */
    void beginSlice();

    /**
     * Allocate one entry holding `value`.
     * @return entry index, or nullopt on capacity overflow
     */
    std::optional<std::uint32_t> alloc(std::uint64_t value);

    /** Read an allocated entry. */
    std::uint64_t read(std::uint32_t index) const;

    std::uint32_t capacity() const { return _capacity; }
    std::uint32_t inUse() const
    {
        return static_cast<std::uint32_t>(_values.size());
    }
    /** Largest simultaneous occupancy ever observed (§3.4 sizing). */
    std::uint32_t highWater() const { return _highWater; }
    std::uint64_t overflows() const { return _overflows; }

    /** Fault injection: XOR a mask into an allocated entry (models an
     * SEU in the scratch-file SRAM). The entry must be allocated. */
    void corrupt(std::uint32_t index, std::uint64_t xor_mask);

  private:
    std::uint32_t _capacity;
    std::vector<std::uint64_t> _values;
    std::uint32_t _highWater = 0;
    std::uint64_t _overflows = 0;
};

/**
 * Per-slice register renamer: maps architectural register names used by
 * recomputing instructions onto SFile entries, mimicking classic
 * out-of-order rename logic (§3.2).
 */
class Renamer
{
  public:
    Renamer() { beginSlice(); }

    /** Forget all mappings (slice entry). */
    void beginSlice();

    /** Bind a destination register to an SFile entry. */
    void bind(Reg r, std::uint32_t sfile_index);

    /** Current mapping of a register, if any. */
    std::optional<std::uint32_t> lookup(Reg r) const;

  private:
    std::array<std::int32_t, kNumRegs> _map{};
};

/**
 * History table (§3.2): one entry per RSlice leaf (keyed by the leaf's
 * slice-region address), holding up to two checkpointed source-operand
 * values. On capacity overflow the REC fails and the scheduler forces
 * the matching RCMP to fall back to the load (§3.5).
 *
 * Entries live in a table indexed by leaf address over the program's
 * address space, so lookups never hash; `capacity` bounds how many of
 * them may be written at once.
 */
class Hist
{
  public:
    struct Entry
    {
        std::array<std::uint64_t, 2> values{};
    };

    /** @param leaf_space addresses a leaf may have: [0, leaf_space) */
    Hist(std::uint32_t capacity, std::uint32_t leaf_space);

    /**
     * Record a checkpoint for a leaf.
     * @return false when the table is full and the leaf has no entry
     * yet, or the leaf lies outside the address space (a REC the
     * analyzer rejects as AMN203); both count as overflows
     */
    bool record(std::uint32_t leaf_addr, std::uint64_t v0,
                std::uint64_t v1);

    /** Entry for a leaf, or nullptr if never recorded. */
    const Entry *lookup(std::uint32_t leaf_addr) const;

    std::uint32_t capacity() const { return _capacity; }
    std::uint32_t size() const { return _size; }
    std::uint32_t highWater() const { return _highWater; }
    std::uint64_t writes() const { return _writes; }
    std::uint64_t reads() const { return _reads; }
    std::uint64_t overflows() const { return _overflows; }

    /** Fault injection: XOR a mask into one lane of a recorded entry
     * (models an SEU in the history-table SRAM).
     * @return false if the leaf has no entry */
    bool corrupt(std::uint32_t leaf_addr, int lane,
                 std::uint64_t xor_mask);

    /** Fault injection: drop a recorded entry (a lost checkpoint).
     * @return false if the leaf has no entry */
    bool erase(std::uint32_t leaf_addr);

  private:
    bool
    written(std::uint32_t leaf_addr) const
    {
        return leaf_addr < _slots.size() && _slots[leaf_addr].written;
    }

    struct Slot
    {
        Entry entry;
        bool written = false;
    };

    std::uint32_t _capacity;
    std::vector<Slot> _slots;  ///< indexed by leaf address
    std::uint32_t _size = 0;   ///< written slots
    std::uint32_t _highWater = 0;
    std::uint64_t _writes = 0;
    mutable std::uint64_t _reads = 0;
    std::uint64_t _overflows = 0;
};

/**
 * Instruction buffer (§3.2, optional): caches a slice's recomputing
 * instructions so recomputation does not thrash the instruction cache.
 * Our EPI values are fetch-inclusive, so IBuff is energy-neutral in the
 * default model; the class tracks coverage so the §5.4 sizing claim
 * ("less than 50 entries cover most RSlices") can be evaluated.
 */
class IBuff
{
  public:
    explicit IBuff(std::uint32_t capacity);

    /** Present a slice for buffering; tracks whether it fits. */
    bool fill(std::uint32_t slice_len);

    std::uint32_t capacity() const { return _capacity; }
    std::uint64_t fills() const { return _fills; }
    std::uint64_t tooLarge() const { return _tooLarge; }
    std::uint32_t highWater() const { return _highWater; }

  private:
    std::uint32_t _capacity;
    std::uint64_t _fills = 0;
    std::uint64_t _tooLarge = 0;
    std::uint32_t _highWater = 0;
};

/**
 * Per-site cache-miss predictor (§3.3.1 future work: "better amnesic
 * policies can be devised by using more accurate (miss) predictors,
 * which can also help eliminate the probing overhead").
 *
 * A table of 2-bit saturating counters indexed by a hash of the RCMP's
 * pc: counters >= 2 predict "will miss the FLC" (fire recomputation),
 * < 2 predict a hit (perform the load). Training uses the observed
 * residence of the access.
 */
class MissPredictor
{
  public:
    /** @param log2_entries table size (2^n counters) */
    explicit MissPredictor(std::uint32_t log2_entries = 10);

    /** Predict whether the access at `pc` would miss the FLC. */
    bool predictMiss(std::uint32_t pc) const;

    /** Train with the observed outcome. */
    void train(std::uint32_t pc, bool missed);

    std::uint64_t predictions() const { return _predictions; }
    std::uint64_t mispredictions() const { return _mispredictions; }

    /** Misprediction rate over all trained predictions (0 if none). */
    double mispredictionRate() const;

    /** Record accuracy: call with the prediction that was acted on and
     * the later-observed truth. */
    void account(bool predicted_miss, bool actually_missed);

  private:
    std::size_t indexOf(std::uint32_t pc) const;

    std::vector<std::uint8_t> _counters;
    std::uint64_t _predictions = 0;
    std::uint64_t _mispredictions = 0;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_UARCH_H
