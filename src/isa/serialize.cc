#include "isa/serialize.h"

#include <cstring>
#include <fstream>

#include "util/logging.h"

namespace amnesiac {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'N', 'B'};

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size,
      std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/**
 * Little-endian writer. Given a buffer it appends to it; without one it
 * only counts the bytes and folds them into an FNV-1a hash, which sizes
 * the buffer and yields the checksum before anything is stored.
 */
class Writer
{
  public:
    explicit Writer(std::vector<std::uint8_t> *out = nullptr) : _out(out) {}

    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint8_t raw[sizeof(T)];
        std::memcpy(raw, &value, sizeof(T));
        putBytes(raw, sizeof(T));
    }

    void
    putBytes(const void *data, std::size_t n)
    {
        const auto *raw = static_cast<const std::uint8_t *>(data);
        if (_out) {
            _out->insert(_out->end(), raw, raw + n);
        } else {
            size += n;
            hash = fnv1a(raw, n, hash);
        }
    }

    std::size_t size = 0;
    std::uint64_t hash = kFnvOffset;

  private:
    std::vector<std::uint8_t> *_out;
};

/** Bounds-checked reader; any overrun latches an error flag. */
class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> bytes) : _bytes(bytes) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (_failed || _pos + sizeof(T) > _bytes.size()) {
            _failed = true;
            return value;
        }
        std::memcpy(&value, _bytes.data() + _pos, sizeof(T));
        _pos += sizeof(T);
        return value;
    }

    bool
    getBytes(void *out, std::size_t size)
    {
        if (_failed || _pos + size > _bytes.size()) {
            _failed = true;
            return false;
        }
        std::memcpy(out, _bytes.data() + _pos, size);
        _pos += size;
        return true;
    }

    bool failed() const { return _failed; }
    std::size_t position() const { return _pos; }

  private:
    std::span<const std::uint8_t> _bytes;
    std::size_t _pos = 0;
    bool _failed = false;
};

void
putInstruction(Writer &w, const Instruction &instr)
{
    w.put(static_cast<std::uint8_t>(instr.op));
    w.put(instr.rd);
    w.put(instr.rs1);
    w.put(instr.rs2);
    w.put(instr.imm);
    w.put(instr.target);
    w.put(instr.sliceId);
    w.put(instr.leafAddr);
    w.put(static_cast<std::uint8_t>(instr.src1));
    w.put(static_cast<std::uint8_t>(instr.src2));
}

bool
getInstruction(Reader &r, Instruction &instr)
{
    std::uint8_t op = r.get<std::uint8_t>();
    if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    instr.op = static_cast<Opcode>(op);
    instr.rd = r.get<Reg>();
    instr.rs1 = r.get<Reg>();
    instr.rs2 = r.get<Reg>();
    instr.imm = r.get<std::int64_t>();
    instr.target = r.get<std::uint32_t>();
    instr.sliceId = r.get<std::uint32_t>();
    instr.leafAddr = r.get<std::uint32_t>();
    std::uint8_t src1 = r.get<std::uint8_t>();
    std::uint8_t src2 = r.get<std::uint8_t>();
    if (src1 > static_cast<std::uint8_t>(OperandSource::Live) ||
        src2 > static_cast<std::uint8_t>(OperandSource::Live))
        return false;
    instr.src1 = static_cast<OperandSource>(src1);
    instr.src2 = static_cast<OperandSource>(src2);
    return !r.failed();
}

/** Everything of the format but the trailing checksum. */
void
putProgram(Writer &w, const Program &program)
{
    w.putBytes(kMagic, sizeof(kMagic));
    w.put(kProgramFormatVersion);
    w.put(program.codeEnd);
    w.put(static_cast<std::uint64_t>(program.code.size()));
    for (const Instruction &instr : program.code)
        putInstruction(w, instr);
    w.put(static_cast<std::uint64_t>(program.dataImage.size()));
    for (std::uint64_t word : program.dataImage)
        w.put(word);
    w.put(static_cast<std::uint64_t>(program.slices.size()));
    for (const RSliceMeta &meta : program.slices) {
        w.put(meta.id);
        w.put(meta.entry);
        w.put(meta.length);
        w.put(meta.rcmpPc);
        w.put(meta.height);
        w.put(meta.leafCount);
        w.put(meta.histLeafCount);
        w.put(meta.histOperandCount);
        w.put(meta.ercEstimate);
        w.put(meta.eldEstimate);
    }
    w.put(static_cast<std::uint32_t>(program.name.size()));
    w.putBytes(program.name.data(), program.name.size());
}

}  // namespace

std::vector<std::uint8_t>
serializeProgram(const Program &program)
{
    Writer measure;
    putProgram(measure, program);
    std::vector<std::uint8_t> bytes;
    bytes.reserve(measure.size + sizeof(std::uint64_t));
    Writer w(&bytes);
    putProgram(w, program);
    w.put(measure.hash);
    return bytes;
}

std::uint64_t
serializedDigest(const Program &program)
{
    Writer w;
    putProgram(w, program);
    w.put(w.hash);  // the checksum is the hash of what precedes it
    return w.hash;
}

std::optional<Program>
deserializeProgram(std::span<const std::uint8_t> bytes, std::string *error)
{
    auto fail = [error](const char *why) -> std::optional<Program> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    if (bytes.size() < sizeof(kMagic) + sizeof(std::uint64_t))
        return fail("buffer too small");
    std::uint64_t stored_checksum;
    std::memcpy(&stored_checksum,
                bytes.data() + bytes.size() - sizeof(std::uint64_t),
                sizeof(std::uint64_t));
    if (fnv1a(bytes.data(), bytes.size() - sizeof(std::uint64_t)) !=
        stored_checksum)
        return fail("checksum mismatch");

    Reader r(bytes);
    char magic[4];
    if (!r.getBytes(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic");
    if (r.get<std::uint32_t>() != kProgramFormatVersion)
        return fail("unsupported version");

    Program program;
    program.codeEnd = r.get<std::uint32_t>();
    std::uint64_t code_size = r.get<std::uint64_t>();
    if (r.failed() || code_size > (1ull << 24))
        return fail("implausible code size");
    program.code.resize(code_size);
    for (Instruction &instr : program.code)
        if (!getInstruction(r, instr))
            return fail("malformed instruction");
    std::uint64_t data_words = r.get<std::uint64_t>();
    if (r.failed() || data_words > (1ull << 28))
        return fail("implausible data size");
    program.dataImage.resize(data_words);
    for (std::uint64_t &word : program.dataImage)
        word = r.get<std::uint64_t>();
    std::uint64_t slice_count = r.get<std::uint64_t>();
    if (r.failed() || slice_count > (1ull << 20))
        return fail("implausible slice count");
    program.slices.resize(slice_count);
    for (RSliceMeta &meta : program.slices) {
        meta.id = r.get<std::uint32_t>();
        meta.entry = r.get<std::uint32_t>();
        meta.length = r.get<std::uint32_t>();
        meta.rcmpPc = r.get<std::uint32_t>();
        meta.height = r.get<std::uint32_t>();
        meta.leafCount = r.get<std::uint32_t>();
        meta.histLeafCount = r.get<std::uint32_t>();
        meta.histOperandCount = r.get<std::uint32_t>();
        meta.ercEstimate = r.get<double>();
        meta.eldEstimate = r.get<double>();
    }
    std::uint32_t name_len = r.get<std::uint32_t>();
    if (r.failed() || name_len > (1u << 16))
        return fail("implausible name length");
    program.name.resize(name_len);
    if (name_len > 0 && !r.getBytes(program.name.data(), name_len))
        return fail("truncated name");
    if (r.failed() || program.codeEnd > program.code.size())
        return fail("inconsistent code bounds");
    return program;
}

void
saveProgram(const Program &program, const std::string &path)
{
    std::vector<std::uint8_t> bytes = serializeProgram(program);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        AMNESIAC_FATAL("cannot open '" + path + "' for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        AMNESIAC_FATAL("write to '" + path + "' failed");
}

std::optional<std::vector<std::uint8_t>>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return std::nullopt;
    const std::streamoff size = in.tellg();
    if (size < 0 || !in.seekg(0))
        return std::nullopt;
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (!in.read(reinterpret_cast<char *>(bytes.data()), size))
        return std::nullopt;
    return bytes;
}

std::optional<Program>
loadProgram(const std::string &path, std::string *error)
{
    std::optional<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    if (!bytes) {
        if (error)
            *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    return deserializeProgram(*bytes, error);
}

}  // namespace amnesiac
