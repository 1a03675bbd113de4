#include <gtest/gtest.h>

#include "cpu/interp.hpp"
#include "cpu/kernels.hpp"

namespace mte::cpu {
namespace {

std::uint32_t run_and_get_r1(const Program& p, std::uint64_t max_steps = 1u << 20) {
  Interpreter interp(p, 1024);
  interp.run(max_steps);
  EXPECT_TRUE(interp.halted());
  return interp.reg(1);
}

TEST(Execute, AluSemantics) {
  const Instr add{Opcode::kAdd, 1, 2, 3, 0};
  EXPECT_EQ(execute(add, 0, 7, 5).value, 12u);
  const Instr sub{Opcode::kSub, 1, 2, 3, 0};
  EXPECT_EQ(execute(sub, 0, 3, 5).value, 0xFFFFFFFEu);  // wraparound
  const Instr slt{Opcode::kSlt, 1, 2, 3, 0};
  EXPECT_EQ(execute(slt, 0, 0xFFFFFFFFu, 0).value, 1u);  // signed compare
  const Instr sll{Opcode::kSll, 1, 2, 3, 0};
  EXPECT_EQ(execute(sll, 0, 1, 33).value, 2u);  // shift amount masked
  const Instr mul{Opcode::kMul, 1, 2, 3, 0};
  EXPECT_EQ(execute(mul, 0, 100000, 100000).value, 100000u * 100000u);
}

TEST(Execute, BranchSemantics) {
  const Instr beq{Opcode::kBeq, 0, 1, 2, 5};
  EXPECT_EQ(execute(beq, 10, 4, 4).next_pc, 16u);
  EXPECT_EQ(execute(beq, 10, 4, 5).next_pc, 11u);
  const Instr bne{Opcode::kBne, 0, 1, 2, -3};
  EXPECT_EQ(execute(bne, 10, 4, 5).next_pc, 8u);
  EXPECT_EQ(execute(bne, 10, 4, 4).next_pc, 11u);
}

TEST(Execute, JumpSemantics) {
  const Instr jal{Opcode::kJal, 31, 0, 0, 100};
  const auto r = execute(jal, 10, 0, 0);
  EXPECT_EQ(r.next_pc, 100u);
  EXPECT_EQ(r.value, 11u);
  const Instr jr{Opcode::kJr, 0, 5, 0, 0};
  EXPECT_EQ(execute(jr, 10, 77, 0).next_pc, 77u);
}

TEST(Execute, LuiShifts16) {
  const Instr lui{Opcode::kLui, 1, 0, 0, 0xABCD};
  EXPECT_EQ(execute(lui, 0, 0, 0).value, 0xABCD0000u);
}

TEST(Interpreter, R0StaysZero) {
  const Program p = assemble("addi r0, r0, 5\nadd r1, r0, r0\nhalt\n");
  Interpreter interp(p, 16);
  interp.run();
  EXPECT_EQ(interp.reg(0), 0u);
  EXPECT_EQ(interp.reg(1), 0u);
}

TEST(Interpreter, Fibonacci) {
  EXPECT_EQ(run_and_get_r1(kernels::fibonacci(0)), 0u);
  EXPECT_EQ(run_and_get_r1(kernels::fibonacci(1)), 1u);
  EXPECT_EQ(run_and_get_r1(kernels::fibonacci(10)), 55u);
  EXPECT_EQ(run_and_get_r1(kernels::fibonacci(20)), 6765u);
}

TEST(Interpreter, ArraySum) {
  const Program p = kernels::array_sum(8);
  Interpreter interp(p, 64);
  std::uint32_t expect = 0;
  for (int i = 0; i < 8; ++i) {
    interp.mem().write(i, 10 + i);
    expect += 10 + i;
  }
  interp.run();
  EXPECT_EQ(interp.reg(1), expect);
  EXPECT_EQ(interp.mem().read(8), expect);  // stored after the array
}

TEST(Interpreter, MemcpyWords) {
  const Program p = kernels::memcpy_words(5, 0, 100);
  Interpreter interp(p, 256);
  for (int i = 0; i < 5; ++i) interp.mem().write(i, 111 * (i + 1));
  interp.run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(interp.mem().read(100 + i), 111u * (i + 1));
}

TEST(Interpreter, DotProduct) {
  const Program p = kernels::dot_product(4, 0, 50);
  Interpreter interp(p, 128);
  std::uint32_t expect = 0;
  for (int i = 0; i < 4; ++i) {
    interp.mem().write(i, i + 1);
    interp.mem().write(50 + i, 2 * (i + 1));
    expect += (i + 1) * 2 * (i + 1);
  }
  interp.run();
  EXPECT_EQ(interp.reg(1), expect);
}

TEST(Interpreter, SieveCountsPrimes) {
  const Program p = kernels::sieve(50);
  EXPECT_EQ(run_and_get_r1(p), 15u);  // primes below 50
}

TEST(Interpreter, Gcd) {
  EXPECT_EQ(run_and_get_r1(kernels::gcd(48, 36)), 12u);
  EXPECT_EQ(run_and_get_r1(kernels::gcd(17, 5)), 1u);
  EXPECT_EQ(run_and_get_r1(kernels::gcd(9, 9)), 9u);
}

TEST(Interpreter, CallLeaf) {
  EXPECT_EQ(run_and_get_r1(kernels::call_leaf(3, 4)), 14u);
}

TEST(Interpreter, OutOfRangePcThrows) {
  const Program p = assemble("nop\n");  // falls off the end
  Interpreter interp(p, 16);
  interp.step();
  EXPECT_THROW(interp.step(), sim::SimulationError);
}

TEST(Interpreter, MemoryOutOfRangeThrows) {
  const Program p = assemble("lw r1, 1000(r0)\nhalt\n");
  Interpreter interp(p, 16);
  EXPECT_THROW(interp.run(), sim::SimulationError);
}

TEST(Interpreter, RetiredCounts) {
  const Program p = assemble("nop\nnop\nhalt\n");
  Interpreter interp(p, 16);
  interp.run();
  EXPECT_EQ(interp.retired(), 3u);
}

TEST(CacheModel, HitAfterMiss) {
  CacheModel c(4, 4, 1, 10);
  EXPECT_EQ(c.access(0), 10u);  // cold miss
  EXPECT_EQ(c.access(1), 1u);   // same line
  EXPECT_EQ(c.access(3), 1u);
  EXPECT_EQ(c.access(4), 10u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModel, ConflictEviction) {
  CacheModel c(2, 1, 1, 10);
  EXPECT_EQ(c.access(0), 10u);
  EXPECT_EQ(c.access(2), 10u);  // maps to the same index, evicts
  EXPECT_EQ(c.access(0), 10u);  // miss again
}

TEST(DataMemory, BoundsChecked) {
  DataMemory m(4);
  m.write(3, 7);
  EXPECT_EQ(m.read(3), 7u);
  EXPECT_THROW((void)m.read(4), sim::SimulationError);
  EXPECT_THROW(m.write(4, 0), sim::SimulationError);
}

}  // namespace
}  // namespace mte::cpu
