#include "core/uarch.h"

#include <algorithm>

#include "util/logging.h"

namespace amnesiac {

SFile::SFile(std::uint32_t capacity) : _capacity(capacity)
{
    AMNESIAC_ASSERT(capacity > 0, "SFile needs capacity");
    _values.reserve(capacity);
}

void
SFile::beginSlice()
{
    _values.clear();
}

std::optional<std::uint32_t>
SFile::alloc(std::uint64_t value)
{
    if (_values.size() >= _capacity) {
        ++_overflows;
        return std::nullopt;
    }
    _values.push_back(value);
    _highWater = std::max(_highWater,
                          static_cast<std::uint32_t>(_values.size()));
    return static_cast<std::uint32_t>(_values.size() - 1);
}

std::uint64_t
SFile::read(std::uint32_t index) const
{
    AMNESIAC_ASSERT(index < _values.size(), "SFile read of unallocated entry");
    return _values[index];
}

void
SFile::corrupt(std::uint32_t index, std::uint64_t xor_mask)
{
    AMNESIAC_ASSERT(index < _values.size(),
                    "SFile corrupt of unallocated entry");
    _values[index] ^= xor_mask;
}

void
Renamer::beginSlice()
{
    _map.fill(-1);
}

void
Renamer::bind(Reg r, std::uint32_t sfile_index)
{
    AMNESIAC_ASSERT(r < kNumRegs, "renamer: bad register");
    _map[r] = static_cast<std::int32_t>(sfile_index);
}

std::optional<std::uint32_t>
Renamer::lookup(Reg r) const
{
    AMNESIAC_ASSERT(r < kNumRegs, "renamer: bad register");
    if (_map[r] < 0)
        return std::nullopt;
    return static_cast<std::uint32_t>(_map[r]);
}

Hist::Hist(std::uint32_t capacity, std::uint32_t leaf_space)
    : _capacity(capacity), _slots(leaf_space)
{
    AMNESIAC_ASSERT(capacity > 0, "Hist needs capacity");
}

bool
Hist::record(std::uint32_t leaf_addr, std::uint64_t v0, std::uint64_t v1)
{
    if (leaf_addr >= _slots.size()) {
        ++_overflows;
        return false;
    }
    Slot &slot = _slots[leaf_addr];
    if (!slot.written) {
        if (_size >= _capacity) {
            ++_overflows;
            return false;
        }
        slot.written = true;
        _highWater = std::max(_highWater, ++_size);
    }
    slot.entry.values = {v0, v1};
    ++_writes;
    return true;
}

bool
Hist::corrupt(std::uint32_t leaf_addr, int lane, std::uint64_t xor_mask)
{
    AMNESIAC_ASSERT(lane == 0 || lane == 1, "Hist entries have two lanes");
    if (!written(leaf_addr))
        return false;
    _slots[leaf_addr].entry.values[static_cast<std::size_t>(lane)] ^=
        xor_mask;
    return true;
}

bool
Hist::erase(std::uint32_t leaf_addr)
{
    if (!written(leaf_addr))
        return false;
    _slots[leaf_addr].written = false;
    --_size;
    return true;
}

const Hist::Entry *
Hist::lookup(std::uint32_t leaf_addr) const
{
    if (!written(leaf_addr))
        return nullptr;
    ++_reads;
    return &_slots[leaf_addr].entry;
}

MissPredictor::MissPredictor(std::uint32_t log2_entries)
{
    AMNESIAC_ASSERT(log2_entries >= 1 && log2_entries <= 20,
                    "predictor size out of range");
    // Weakly biased toward "miss": a cold predictor behaves like the
    // Compiler policy until trained.
    _counters.assign(1ull << log2_entries, 2);
}

std::size_t
MissPredictor::indexOf(std::uint32_t pc) const
{
    // Fibonacci hash of the site address.
    std::uint64_t h = pc * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> (64 - 20)) &
           (_counters.size() - 1);
}

bool
MissPredictor::predictMiss(std::uint32_t pc) const
{
    return _counters[indexOf(pc)] >= 2;
}

void
MissPredictor::train(std::uint32_t pc, bool missed)
{
    std::uint8_t &counter = _counters[indexOf(pc)];
    if (missed) {
        if (counter < 3)
            ++counter;
    } else if (counter > 0) {
        --counter;
    }
}

void
MissPredictor::account(bool predicted_miss, bool actually_missed)
{
    ++_predictions;
    if (predicted_miss != actually_missed)
        ++_mispredictions;
}

double
MissPredictor::mispredictionRate() const
{
    return _predictions == 0
        ? 0.0
        : static_cast<double>(_mispredictions) /
              static_cast<double>(_predictions);
}

IBuff::IBuff(std::uint32_t capacity) : _capacity(capacity) {}

bool
IBuff::fill(std::uint32_t slice_len)
{
    ++_fills;
    _highWater = std::max(_highWater, std::min(slice_len, _capacity));
    if (slice_len > _capacity) {
        ++_tooLarge;
        return false;
    }
    return true;
}

}  // namespace amnesiac
