/**
 * @file
 * Tests for program serialization: round-trip fidelity (classic and
 * amnesic binaries), corruption rejection, and file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/amnesic_machine.h"
#include "core/compiler.h"
#include "isa/program_builder.h"
#include "isa/serialize.h"
#include "isa/verifier.h"

namespace amnesiac {
namespace {

Program
classicProgram()
{
    ProgramBuilder b("roundtrip");
    std::uint64_t a = b.allocWords(4);
    b.poke(a + 8, 0xDEADBEEFCAFEF00Dull);
    b.li(1, a);
    b.ld(2, 1, 8);
    b.alu(Opcode::Xor, 3, 2, 2);
    auto l = b.newLabel();
    b.bind(l);
    b.blt(3, 2, l);
    b.halt();
    return b.finish();
}

Program
amnesicProgram()
{
    // Reuse the compiler on a small kernel to get a real slice region.
    ProgramBuilder b("amn");
    std::uint64_t cell = b.allocWords(1);
    std::uint64_t big = b.allocWords(16 * 1024);
    b.li(1, cell);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 32);
    b.li(15, big);
    b.li(17, 64);
    b.li(18, 16 * 1024 * 8);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);
    b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(16, 0);
    auto scan = b.newLabel();
    b.bind(scan);
    b.alu(Opcode::Add, 19, 15, 16);
    b.ld(20, 19);
    b.alu(Opcode::Add, 16, 16, 17);
    b.blt(16, 18, scan);
    b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    CompilerConfig config;
    config.minSiteCount = 4;
    AmnesicCompiler compiler(EnergyModel{}, HierarchyConfig{}, config);
    return compiler.compile(b.finish()).program;
}

bool
sameProgram(const Program &a, const Program &b)
{
    if (a.name != b.name || a.codeEnd != b.codeEnd ||
        a.code.size() != b.code.size() || a.dataImage != b.dataImage ||
        a.slices.size() != b.slices.size())
        return false;
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        const Instruction &x = a.code[i];
        const Instruction &y = b.code[i];
        if (x.op != y.op || x.rd != y.rd || x.rs1 != y.rs1 ||
            x.rs2 != y.rs2 || x.imm != y.imm || x.target != y.target ||
            x.sliceId != y.sliceId || x.leafAddr != y.leafAddr ||
            x.src1 != y.src1 || x.src2 != y.src2)
            return false;
    }
    for (std::size_t i = 0; i < a.slices.size(); ++i)
        if (a.slices[i].id != b.slices[i].id ||
            a.slices[i].entry != b.slices[i].entry ||
            a.slices[i].length != b.slices[i].length ||
            a.slices[i].histLeafCount != b.slices[i].histLeafCount)
            return false;
    return true;
}

TEST(Serialize, ClassicRoundTrip)
{
    Program original = classicProgram();
    auto bytes = serializeProgram(original);
    auto restored = deserializeProgram(bytes);
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(sameProgram(original, *restored));
}

TEST(Serialize, AmnesicRoundTripStaysWellFormedAndRunnable)
{
    Program original = amnesicProgram();
    ASSERT_GT(original.slices.size(), 0u);
    auto restored = deserializeProgram(serializeProgram(original));
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(sameProgram(original, *restored));
    EXPECT_TRUE(isWellFormed(*restored));

    AmnesicConfig config;
    config.policy = Policy::Compiler;
    config.strictMismatch = true;
    AmnesicMachine a(original, EnergyModel{}, config);
    AmnesicMachine b(*restored, EnergyModel{}, config);
    a.run();
    b.run();
    EXPECT_EQ(a.stats().energyNj(), b.stats().energyNj());
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.stats().recomputations, b.stats().recomputations);
}

TEST(Serialize, ExactSizeBufferAndBufferlessDigest)
{
    for (const Program &p : {classicProgram(), amnesicProgram()}) {
        auto bytes = serializeProgram(p);
        // Sized before writing: one allocation, no growth.
        EXPECT_EQ(bytes.capacity(), bytes.size());
        std::uint64_t fnv = 0xCBF29CE484222325ull;
        for (std::uint8_t byte : bytes) {
            fnv ^= byte;
            fnv *= 0x100000001B3ull;
        }
        EXPECT_EQ(serializedDigest(p), fnv);
    }
}

TEST(Serialize, RejectsCorruption)
{
    auto bytes = serializeProgram(classicProgram());
    std::string error;

    auto flipped = bytes;
    flipped[bytes.size() / 2] ^= 0xFF;
    EXPECT_FALSE(deserializeProgram(flipped, &error).has_value());
    EXPECT_EQ(error, "checksum mismatch");

    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(deserializeProgram(truncated, &error).has_value());

    auto bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_FALSE(deserializeProgram(bad_magic, &error).has_value());

    std::vector<std::uint8_t> tiny = {1, 2, 3};
    EXPECT_FALSE(deserializeProgram(tiny, &error).has_value());
    EXPECT_EQ(error, "buffer too small");
}

TEST(Serialize, RejectsBadEnumValues)
{
    // Corrupt an opcode byte but repair the checksum so only the
    // semantic validation can catch it.
    Program p = classicProgram();
    p.code[0].op = static_cast<Opcode>(250);  // invalid
    auto bytes = serializeProgram(p);
    std::string error;
    EXPECT_FALSE(deserializeProgram(bytes, &error).has_value());
    EXPECT_EQ(error, "malformed instruction");
}

TEST(Serialize, FileRoundTrip)
{
    Program original = amnesicProgram();
    std::string path = ::testing::TempDir() + "amnesiac_roundtrip.amnb";
    saveProgram(original, path);
    std::string error;
    auto restored = loadProgram(path, &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(sameProgram(original, *restored));
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileReportsError)
{
    std::string error;
    EXPECT_FALSE(loadProgram("/nonexistent/dir/x.amnb", &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace amnesiac
