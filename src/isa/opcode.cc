#include "isa/opcode.h"

#include "util/logging.h"

namespace amnesiac {

InstrCategory
categoryOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:   return InstrCategory::Nop;
      case Opcode::Li:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:   return InstrCategory::IntAlu;
      case Opcode::Mul:   return InstrCategory::IntMul;
      case Opcode::Divu:  return InstrCategory::IntDiv;
      case Opcode::Fadd:
      case Opcode::Fsub:  return InstrCategory::FpAlu;
      case Opcode::Fmul:  return InstrCategory::FpMul;
      case Opcode::Fdiv:  return InstrCategory::FpDiv;
      case Opcode::Ld:    return InstrCategory::Load;
      case Opcode::St:    return InstrCategory::Store;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:   return InstrCategory::Branch;
      case Opcode::Jmp:
      case Opcode::Halt:  return InstrCategory::Jump;
      case Opcode::Rcmp:  return InstrCategory::Rcmp;
      case Opcode::Rec:   return InstrCategory::Rec;
      case Opcode::Rtn:   return InstrCategory::Rtn;
      default:
        AMNESIAC_PANIC("categoryOf: bad opcode");
    }
}

std::string_view
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Nop:  return "nop";
      case Opcode::Li:   return "li";
      case Opcode::Mov:  return "mov";
      case Opcode::Add:  return "add";
      case Opcode::Sub:  return "sub";
      case Opcode::Mul:  return "mul";
      case Opcode::Divu: return "divu";
      case Opcode::And:  return "and";
      case Opcode::Or:   return "or";
      case Opcode::Xor:  return "xor";
      case Opcode::Shl:  return "shl";
      case Opcode::Shr:  return "shr";
      case Opcode::Fadd: return "fadd";
      case Opcode::Fsub: return "fsub";
      case Opcode::Fmul: return "fmul";
      case Opcode::Fdiv: return "fdiv";
      case Opcode::Ld:   return "ld";
      case Opcode::St:   return "st";
      case Opcode::Beq:  return "beq";
      case Opcode::Bne:  return "bne";
      case Opcode::Blt:  return "blt";
      case Opcode::Jmp:  return "jmp";
      case Opcode::Halt: return "halt";
      case Opcode::Rcmp: return "rcmp";
      case Opcode::Rec:  return "rec";
      case Opcode::Rtn:  return "rtn";
      default:
        AMNESIAC_PANIC("mnemonic: bad opcode");
    }
}

std::string_view
categoryName(InstrCategory cat)
{
    switch (cat) {
      case InstrCategory::Nop:    return "nop";
      case InstrCategory::IntAlu: return "int-alu";
      case InstrCategory::IntMul: return "int-mul";
      case InstrCategory::IntDiv: return "int-div";
      case InstrCategory::FpAlu:  return "fp-alu";
      case InstrCategory::FpMul:  return "fp-mul";
      case InstrCategory::FpDiv:  return "fp-div";
      case InstrCategory::Load:   return "load";
      case InstrCategory::Store:  return "store";
      case InstrCategory::Branch: return "branch";
      case InstrCategory::Jump:   return "jump";
      case InstrCategory::Rcmp:   return "rcmp";
      case InstrCategory::Rec:    return "rec";
      case InstrCategory::Rtn:    return "rtn";
      default:
        AMNESIAC_PANIC("categoryName: bad category");
    }
}

int
numSources(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::Li:
      case Opcode::Jmp:
      case Opcode::Halt:
      case Opcode::Rtn:
        return 0;
      case Opcode::Mov:
      case Opcode::Ld:
      case Opcode::Rcmp:
        return 1;
      case Opcode::Rec:   // snapshots up to two register values
        return 2;
      default:
        return 2;
    }
}

bool
hasDest(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::St:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Halt:
      case Opcode::Rec:
      case Opcode::Rtn:
        return false;
      default:
        return true;
    }
}

bool
isControlFlow(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Halt:
      case Opcode::Rcmp:
      case Opcode::Rtn:
        return true;
      default:
        return false;
    }
}

bool
isSliceable(Opcode op)
{
    switch (op) {
      case Opcode::Li:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
        return true;
      default:
        return false;
    }
}

}  // namespace amnesiac
