/**
 * @file
 * Binary (de)serialization of programs, including amnesic binaries with
 * their slice regions and metadata. Lets a compiled binary be produced
 * once (profiling is the expensive step) and executed many times, and
 * lets tests snapshot compiler output.
 *
 * Format (little-endian, versioned):
 *   magic "AMNB" | u32 version | u32 codeEnd | u64 codeSize
 *   | codeSize x InstructionRecord | u64 dataWords | dataWords x u64
 *   | u64 sliceCount | sliceCount x RSliceMeta fields | u32 nameLen
 *   | name bytes | u64 fnv1a checksum of everything before it
 */

#ifndef AMNESIAC_ISA_SERIALIZE_H
#define AMNESIAC_ISA_SERIALIZE_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "isa/program.h"

namespace amnesiac {

/** Serialize to an in-memory byte buffer, allocated once at its size. */
std::vector<std::uint8_t> serializeProgram(const Program &program);

/**
 * FNV-1a of serializeProgram(program)'s bytes, computed without
 * building them: a multi-megabyte data image costs no buffer.
 */
std::uint64_t serializedDigest(const Program &program);

/**
 * Deserialize; returns nullopt (and fills `error` when given) on a
 * malformed buffer: bad magic, unsupported version, truncation,
 * checksum mismatch, or out-of-range enum values.
 */
std::optional<Program> deserializeProgram(std::span<const std::uint8_t> bytes,
                                          std::string *error = nullptr);

/** Write a program to a file; fatal on I/O failure. */
void saveProgram(const Program &program, const std::string &path);

/** A whole file, read into one buffer of its exact size; nullopt when
 * it cannot be opened or read. */
std::optional<std::vector<std::uint8_t>> readFileBytes(
    const std::string &path);

/** Read a program from a file; nullopt on I/O or format errors. */
std::optional<Program> loadProgram(const std::string &path,
                                   std::string *error = nullptr);

/** Current format version. */
inline constexpr std::uint32_t kProgramFormatVersion = 1;

}  // namespace amnesiac

#endif  // AMNESIAC_ISA_SERIALIZE_H
