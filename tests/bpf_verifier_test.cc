// Verifier tests: every rejection class the paper's isolation story relies
// on (§4.3), plus acceptance of all shipped policies.
#include <gtest/gtest.h>

#include "src/bpf/assembler.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"

namespace syrup::bpf {
namespace {

// Assembles `source`, resolving declared maps with freshly created ones.
// Extern maps (tests have no registry) become u32 -> u64 arrays of 8 slots.
Program Load(std::string_view source) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.status();
  Program prog;
  prog.name = assembled->name;
  prog.insns = assembled->insns;
  for (const MapSlot& slot : assembled->map_slots) {
    MapSpec spec = slot.spec;
    if (slot.is_extern) {
      spec = MapSpec{};
      spec.type = MapType::kArray;
      spec.max_entries = 8;
      spec.name = slot.name;
    }
    prog.maps.push_back(CreateMap(spec).value());
  }
  return prog;
}

Status VerifyPacket(std::string_view source) {
  return Verify(Load(source), ProgramContext::kPacket);
}

testing::AssertionResult Rejects(std::string_view source,
                                 std::string_view why) {
  const Status status = VerifyPacket(source);
  if (status.ok()) {
    return testing::AssertionFailure() << "program unexpectedly verified";
  }
  if (status.message().find(why) == std::string::npos) {
    return testing::AssertionFailure()
           << "expected rejection reason '" << why << "', got: "
           << status.ToString();
  }
  return testing::AssertionSuccess();
}

// --- acceptance ------------------------------------------------------------------

TEST(Verifier, AcceptsTrivialProgram) {
  EXPECT_TRUE(VerifyPacket("mov r0, 0\nexit\n").ok());
}

TEST(Verifier, AcceptsBoundsCheckedPacketRead) {
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxw r0, [r1+0]
    exit
  out:
    mov r0, PASS
    exit
  )").ok());
}

TEST(Verifier, AcceptsReversedBoundsCompare) {
  // `if (pkt_end >= pkt + 8) read;` — refinement on the taken edge.
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 8
    jge r2, r3, read
    mov r0, PASS
    exit
  read:
    ldxdw r0, [r1+0]
    exit
  )").ok());
}

TEST(Verifier, AcceptsNullCheckedMapDeref) {
  EXPECT_TRUE(VerifyPacket(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    ldxdw r0, [r0+0]
    exit
  out:
    mov r0, 0
    exit
  )").ok());
}

TEST(Verifier, AcceptsBoundedLoop) {
  EXPECT_TRUE(VerifyPacket(R"(
    mov r6, 0
    mov r0, 0
  loop:
    jge r6, 16, done
    add r0, 2
    add r6, 1
    ja loop
  done:
    exit
  )").ok());
}

TEST(Verifier, AcceptsAllShippedPolicies) {
  for (const std::string& source :
       {RoundRobinPolicyAsm(6), HashPolicyAsm(6), ScanAvoidPolicyAsm(6),
        SitaPolicyAsm(6), TokenPolicyAsm(), MicaHomePolicyAsm(8),
        ConstIndexPolicyAsm(0), VarHeaderPolicyAsm(4)}) {
    EXPECT_TRUE(VerifyPacket(source).ok())
        << "policy failed verification:\n" << source
        << "\n" << VerifyPacket(source).ToString();
  }
}

TEST(Verifier, AcceptsThreadContextScalars) {
  Program prog = Load(R"(
    .ctx thread
    mov r0, r1
    add r0, r2
    exit
  )");
  EXPECT_TRUE(Verify(prog, ProgramContext::kThread).ok());
}

TEST(Verifier, ReportsStats) {
  Program prog = Load("mov r0, 0\nexit\n");
  VerifierStats stats;
  ASSERT_TRUE(Verify(prog, ProgramContext::kPacket, {}, &stats).ok());
  EXPECT_EQ(stats.visited_insns, 2u);
}

// --- rejections -------------------------------------------------------------------

TEST(Verifier, RejectsPacketReadWithoutBoundsCheck) {
  // The reason the paper passes (pkt_start, pkt_end) pairs: unchecked
  // dereference must not load.
  EXPECT_TRUE(Rejects(R"(
    ldxw r0, [r1+0]
    exit
  )", "outside verified range"));
}

TEST(Verifier, RejectsReadBeyondCheckedRange) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxdw r0, [r1+0]   ; checked 4 bytes, reads 8
    exit
  out:
    mov r0, PASS
    exit
  )", "outside verified range"));
}

TEST(Verifier, RejectsCheckOnWrongBranch) {
  // Refinement must apply to the correct edge only.
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, read   ; TAKEN edge means pkt+4 > pkt_end: NOT safe
    mov r0, PASS
    exit
  read:
    ldxw r0, [r1+0]
    exit
  )", "outside verified range"));
}

TEST(Verifier, RejectsNegativePacketOffset) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxw r0, [r1-4]
    exit
  out:
    mov r0, PASS
    exit
  )", "outside verified range"));
}

TEST(Verifier, RejectsPacketWrite) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    mov r4, 0
    stxw [r1+0], r4
  out:
    mov r0, PASS
    exit
  )", "read-only"));
}

TEST(Verifier, RejectsMapDerefWithoutNullCheck) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    ldxdw r0, [r0+0]
    exit
  )", "NULL check"));
}

TEST(Verifier, RejectsProvenNullDeref) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jne r0, 0, out
    ldxdw r0, [r0+0]   ; this branch proved r0 == NULL
    exit
  out:
    mov r0, 0
    exit
  )", "NULL pointer dereference"));
}

TEST(Verifier, RejectsMapValueOutOfBounds) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    ldxdw r3, [r0+8]   ; value is 8 bytes; offset 8 is out of bounds
    mov r0, r3
    exit
  out:
    mov r0, 0
    exit
  )", "map value access out of bounds"));
}

TEST(Verifier, RejectsUninitializedRegisterRead) {
  EXPECT_TRUE(Rejects("mov r0, r5\nexit\n", "uninitialized register"));
}

TEST(Verifier, RejectsUninitializedStackRead) {
  EXPECT_TRUE(Rejects(R"(
    ldxdw r0, [r10-8]
    exit
  )", "uninitialized stack"));
}

TEST(Verifier, RejectsPartiallyInitializedStackRead) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, 1
    stxw [r10-8], r3   ; 4 of the 8 bytes
    ldxdw r0, [r10-8]
    exit
  )", "uninitialized stack"));
}

TEST(Verifier, RejectsStackOutOfBounds) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, 1
    stxw [r10-516], r3
    mov r0, 0
    exit
  )", "stack access out of bounds"));
  EXPECT_TRUE(Rejects(R"(
    mov r3, 1
    stxw [r10+0], r3
    mov r0, 0
    exit
  )", "stack access out of bounds"));
}

TEST(Verifier, RejectsWriteToFramePointer) {
  EXPECT_TRUE(Rejects("mov r10, 0\nmov r0, 0\nexit\n", "frame pointer"));
}

TEST(Verifier, RejectsFallOffEnd) {
  EXPECT_TRUE(Rejects("mov r0, 0\n", "falls off the end"));
}

TEST(Verifier, RejectsExitWithUninitializedR0) {
  EXPECT_TRUE(Rejects("exit\n", "non-scalar or uninitialized r0"));
}

TEST(Verifier, RejectsExitWithPointerR0) {
  EXPECT_TRUE(Rejects("mov r0, r1\nexit\n",
                      "non-scalar or uninitialized r0"));
}

TEST(Verifier, RejectsUnboundedLoop) {
  // The liveness guarantee: exploration budget exhausts (the paper's
  // "verifier analyzes up to 1 million instructions").
  VerifierOptions options;
  options.max_visited_insns = 10'000;
  Program prog = Load(R"(
    mov r0, 0
  loop:
    add r0, 1
    ja loop
  )");
  const Status status = Verify(prog, ProgramContext::kPacket, options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("too complex"), std::string::npos);
}

TEST(Verifier, RejectsDataDependentLoop) {
  VerifierOptions options;
  options.max_visited_insns = 50'000;
  // Loop bound comes from packet data: unknown, so exploration re-forks
  // until the budget trips.
  Program prog = Load(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxw r4, [r1+0]
    mov r0, 0
  loop:
    jge r0, r4, out
    add r0, 1
    ja loop
  out:
    mov r0, 0
    exit
  )");
  EXPECT_FALSE(Verify(prog, ProgramContext::kPacket, options).ok());
}

TEST(Verifier, RejectsHelperWithWrongMapRegister) {
  EXPECT_TRUE(Rejects(R"(
    mov r1, 0
    mov r2, r10
    add r2, -4
    mov r3, 7
    stxw [r10-4], r3
    call map_lookup_elem
    mov r0, 0
    exit
  )", "map reference"));
}

TEST(Verifier, RejectsHelperKeyFromUninitializedStack) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    mov r0, 0
    exit
  )", "uninitialized stack"));
}

TEST(Verifier, RejectsHelperKeyNotAPointer) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    ldmapfd r1, m
    mov r2, 1234
    call map_lookup_elem
    mov r0, 0
    exit
  )", "stack or map value pointer"));
}

TEST(Verifier, RejectsTailCallOnNonProgArray) {
  EXPECT_TRUE(Rejects(R"(
    .map m array 4 8 4
    mov r1, 0
    ldmapfd r2, m
    mov r3, 0
    call tail_call
    mov r0, 0
    exit
  )", "prog_array"));
}

TEST(Verifier, RejectsUnknownHelper) {
  EXPECT_TRUE(Rejects("call 999\nmov r0, 0\nexit\n", "unknown helper"));
}

TEST(Verifier, RejectsPointerScalarComparison) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, 5
    jgt r1, r3, +1
    mov r0, 0
    exit
  )", "comparison between pointer and scalar"));
}

TEST(Verifier, RejectsPointerImmediateComparison) {
  EXPECT_TRUE(Rejects(R"(
    jgt r1, 5, +1
    mov r0, 0
    exit
  )", "comparison between pointer and immediate"));
}

TEST(Verifier, RejectsArithmeticOnPktEnd) {
  EXPECT_TRUE(Rejects(R"(
    add r2, 4
    mov r0, 0
    exit
  )", "arithmetic on pkt_end"));
}

TEST(Verifier, RejectsMulOnPointer) {
  EXPECT_TRUE(Rejects(R"(
    mul r1, 2
    mov r0, 0
    exit
  )", "ALU op on pointer"));
}

TEST(Verifier, RejectsPointerAddUnknownScalar) {
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxw r4, [r1+0]
    add r1, r4          ; full-u32 range exceeds the offset cap
    mov r0, 0
    exit
  out:
    mov r0, PASS
    exit
  )", "pointer arithmetic with unbounded"));
}

TEST(Verifier, RejectsAtomicOnStackIsAllowedButPacketIsNot) {
  EXPECT_TRUE(Rejects(R"(
    mov r4, 1
    xadddw [r1+0], r4
    mov r0, 0
    exit
  )", "atomic op on packet"));
}

TEST(Verifier, RejectsStoringPointerToStack) {
  EXPECT_TRUE(Rejects(R"(
    stxdw [r10-8], r1
    mov r0, 0
    exit
  )", "expected scalar"));
}

TEST(Verifier, RejectsJumpOutOfBounds) {
  Program prog;
  prog.name = "bad_jump";
  prog.insns = {Insn{Op::kJa, 0, 0, 100, 0}, Insn{Op::kExit, 0, 0, 0, 0}};
  EXPECT_FALSE(Verify(prog, ProgramContext::kPacket).ok());
}

TEST(Verifier, RejectsBadMapIndex) {
  Program prog;
  prog.name = "bad_map";
  prog.insns = {Insn{Op::kLdMapFd, 1, 0, 0, 3},  // no maps loaded
                Insn{Op::kMovImm, 0, 0, 0, 0},
                Insn{Op::kExit, 0, 0, 0, 0}};
  EXPECT_FALSE(Verify(prog, ProgramContext::kPacket).ok());
}

TEST(Verifier, RejectsEmptyProgram) {
  Program prog;
  prog.name = "empty";
  EXPECT_FALSE(Verify(prog, ProgramContext::kPacket).ok());
}

TEST(Verifier, RejectsPacketAccessInThreadContext) {
  // In the thread context r1/r2 are scalars, not packet pointers.
  Program prog = Load(R"(
    .ctx thread
    ldxw r0, [r1+0]
    exit
  )");
  EXPECT_FALSE(Verify(prog, ProgramContext::kThread).ok());
}

TEST(Verifier, ErrorsNameTheProgramAndInstruction) {
  Program prog = Load(".name culprit\nldxw r0, [r1+0]\nexit\n");
  const Status status = Verify(prog, ProgramContext::kPacket);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("culprit"), std::string::npos);
  EXPECT_NE(status.message().find("insn 0"), std::string::npos);
  EXPECT_NE(status.message().find("ldxw"), std::string::npos);
}

// --- range tracking ---------------------------------------------------------------
//
// The abstract domains: a masked or branch-narrowed scalar carries a real
// interval, so adding it to a packet pointer yields a *ranged* access the
// verifier can prove against the bounds check — the constant-only engine
// had to reject every one of these.

TEST(VerifierRanges, AcceptsMaskedVariablePacketOffset) {
  // offset = pkt[5] & 31, read 4B at [offset+4, offset+8) ⊆ [4, 39] < 40.
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    and r4, 31
    mov r5, r1
    add r5, r4
    ldxw r0, [r5+4]
    exit
  out:
    mov r0, PASS
    exit
  )").ok());
}

TEST(VerifierRanges, RejectsVariableOffsetWithoutMask) {
  // Same shape, but the byte is unmasked: offset may be up to 255, and
  // [4, 263) is not covered by the 40-byte guard.
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    mov r5, r1
    add r5, r4
    ldxw r0, [r5+4]
    exit
  out:
    mov r0, PASS
    exit
  )", "outside verified range"));
}

TEST(VerifierRanges, RejectsMaskWiderThanGuard) {
  // Mask proves [0, 63], but only 40 bytes are guarded: max byte 63+7.
  EXPECT_TRUE(Rejects(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    and r4, 63
    mov r5, r1
    add r5, r4
    ldxdw r0, [r5+0]
    exit
  out:
    mov r0, PASS
    exit
  )", "outside verified range"));
}

TEST(VerifierRanges, BranchNarrowingProvesOffsetOnFallEdge) {
  // No mask at all: the `jgt r4, 36, out` guard alone narrows the loaded
  // byte to [0, 36] on the fall-through edge.
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    jgt r4, 36, out
    mov r5, r1
    add r5, r4
    ldxb r0, [r5+0]
    exit
  out:
    mov r0, PASS
    exit
  )").ok());
}

TEST(VerifierRanges, BranchNarrowingProvesOffsetOnTakenEdge) {
  // Dual guard: `jlt r4, 32, read` narrows on the *taken* edge.
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    jlt r4, 32, read
  out:
    mov r0, PASS
    exit
  read:
    mov r5, r1
    add r5, r4
    ldxdw r0, [r5+0]
    exit
  )").ok());
}

TEST(VerifierRanges, ModNarrowsScalarForMapValueAccess) {
  // `mod r0, 8` proves [0, 7]; with an 8-byte map value the 1-byte read at
  // a variable offset is in bounds — variable offsets work on map values
  // too, not just packets.
  EXPECT_TRUE(VerifyPacket(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    mov r7, r0
    call get_prandom_u32
    mod r0, 8
    add r7, r0
    ldxb r0, [r7+0]
    exit
  out:
    mov r0, 0
    exit
  )").ok());
}

TEST(VerifierRanges, ArithmeticPropagatesThroughAluChains) {
  // Ranges survive add/lsh: offset = (pkt[5] & 3) * 8 + 2 ∈ [2, 26]; a
  // 8-byte read at +0 touches at most byte 33 < 40.
  EXPECT_TRUE(VerifyPacket(R"(
    mov r3, r1
    add r3, 40
    jgt r3, r2, out
    ldxb r4, [r1+5]
    and r4, 3
    lsh r4, 3
    add r4, 2
    mov r5, r1
    add r5, r4
    ldxdw r0, [r5+0]
    exit
  out:
    mov r0, PASS
    exit
  )").ok());
}

TEST(VerifierRanges, AcceptsVarHeaderBuiltin) {
  // The shipped variable-offset header-parse policy: the whole point of
  // the range engine (the constant-only verifier rejects it).
  VerifierStats stats;
  Program prog = Load(VarHeaderPolicyAsm(4));
  EXPECT_TRUE(Verify(prog, ProgramContext::kPacket, {}, &stats).ok());
  EXPECT_GT(stats.visited_insns, 0u);
}

// --- pruning ----------------------------------------------------------------------

// A dense diamond chain, each fork on a *fresh* unknown (helper result),
// so branch narrowing cannot decide later diamonds from earlier ones and
// the unpruned exploration is truly exponential. Each arm only writes a
// register that is dead at the join, so liveness-aware subsumption lets
// one completed state per join cover every later arrival.
std::string DiamondChain(int diamonds) {
  std::string src = ".ctx thread\n";
  for (int i = 0; i < diamonds; ++i) {
    const std::string skip = "skip" + std::to_string(i);
    src += "  call get_prandom_u32\n";
    src += "  jset r0, 1, " + skip + "\n";
    src += "  mov r6, " + std::to_string(i) + "\n";
    src += skip + ":\n";
  }
  src += "  mov r0, 0\n  exit\n";
  return src;
}

TEST(VerifierPruning, SubsumptionCollapsesDeadStateDiamonds) {
  Program prog = Load(DiamondChain(10));
  VerifierOptions pruned_opts;
  VerifierOptions exhaustive_opts;
  exhaustive_opts.prune = false;
  VerifierStats pruned, exhaustive;
  ASSERT_TRUE(
      Verify(prog, ProgramContext::kThread, pruned_opts, &pruned).ok());
  ASSERT_TRUE(
      Verify(prog, ProgramContext::kThread, exhaustive_opts, &exhaustive)
          .ok());
  // Exhaustive: ~2^10 paths. Pruned: each join re-explored once.
  EXPECT_GT(pruned.pruned_states, 0u);
  EXPECT_LT(pruned.visited_insns, exhaustive.visited_insns / 10);
  EXPECT_EQ(exhaustive.pruned_states, 0u);
}

TEST(VerifierPruning, RaisesEffectiveComplexityBudget) {
  // 24 diamonds ≈ 16M paths: hopeless for the exhaustive engine at the
  // default one-million-step budget, trivial with subsumption.
  Program prog = Load(DiamondChain(24));
  EXPECT_TRUE(Verify(prog, ProgramContext::kThread).ok());
  VerifierOptions exhaustive;
  exhaustive.prune = false;
  const Status status = Verify(prog, ProgramContext::kThread, exhaustive);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("too complex"), std::string::npos);
}

TEST(VerifierPruning, DoesNotPruneStatesWithLiveDifferences) {
  // Here the per-path value is *live* at the join (it becomes r0), so
  // subsumption must not collapse the paths into one verdict.
  Program prog = Load(R"(
    .ctx thread
    mov r0, 1
    jeq r1, 7, done
    mov r0, 2
  done:
    exit
  )");
  VerifierStats stats;
  ASSERT_TRUE(Verify(prog, ProgramContext::kThread, {}, &stats).ok());
  EXPECT_EQ(stats.pruned_states, 0u);
}

// --- map_lookup_batch --------------------------------------------------------

TEST(Verifier, AcceptsMapLookupBatch) {
  EXPECT_TRUE(VerifyPacket(R"(
.map m hash 4 8 8
  stw [r10-24], 0
  stw [r10-20], 1
  ldmapfd r1, m
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -16
  mov r4, 2
  call map_lookup_batch
  ldxdw r5, [r10-16]   ; the helper initialized the out span
  ldxdw r6, [r10-8]
  mov r0, PASS
  exit
)")
                  .ok());
}

TEST(Verifier, BatchRejectsNonConstantCount) {
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 8 8
  stw [r10-24], 0
  stw [r10-20], 1
  call get_prandom_u32
  mov r4, r0
  and r4, 1
  add r4, 1
  ldmapfd r1, m
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -16
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "known constant"));
}

TEST(Verifier, BatchRejectsCountOutOfRange) {
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 8 8
  stw [r10-8], 0
  ldmapfd r1, m
  mov r2, r10
  add r2, -8
  mov r3, r10
  add r3, -4
  mov r4, 0
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "count must be 1.."));
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 8 64
  ldmapfd r1, m
  mov r2, r10
  add r2, -384
  mov r3, r10
  add r3, -264
  mov r4, 33
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "count must be 1.."));
}

TEST(Verifier, BatchRejectsWideValueMap) {
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 16 8
  stw [r10-16], 0
  ldmapfd r1, m
  mov r2, r10
  add r2, -16
  mov r3, r10
  add r3, -8
  mov r4, 1
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "value_size"));
}

TEST(Verifier, BatchRejectsUninitializedKeySpan) {
  // Two keys declared but only one stored: the second key's 4 bytes are
  // uninitialized stack.
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 8 8
  stw [r10-24], 0
  ldmapfd r1, m
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -16
  mov r4, 2
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "uninitialized"));
}

TEST(Verifier, BatchRejectsOutSpanOverflowingFrame) {
  // out needs 2*8 bytes but sits 8 bytes below the frame top: the span
  // would extend past r10.
  EXPECT_TRUE(Rejects(R"(
.map m hash 4 8 8
  stw [r10-24], 0
  stw [r10-20], 1
  ldmapfd r1, m
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -8
  mov r4, 2
  call map_lookup_batch
  mov r0, PASS
  exit
)",
                      "stack"));
}

TEST(Verifier, BatchHitBitmapRangeIsKnown) {
  // r0 after a batch of 2 is the hit bitmap in [0, 3]; using it directly
  // as the decision must verify (bounded executor index), which only
  // works if the verifier tracks the range.
  EXPECT_TRUE(VerifyPacket(R"(
.map m hash 4 8 8
  stw [r10-24], 0
  stw [r10-20], 1
  ldmapfd r1, m
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -16
  mov r4, 2
  call map_lookup_batch
  exit
)")
                  .ok());
}

TEST(VerifierPruning, CutsVisitedInsnsOnBranchiestBuiltin) {
  // The acceptance bar from the issue: a measurable visited_insns drop on
  // the branchiest shipped policy (least-loaded scans every executor with
  // two branches per probe).
  Program prog = Load(LeastLoadedPolicyAsm(4, "/syrup/t/load"));
  VerifierOptions exhaustive_opts;
  exhaustive_opts.prune = false;
  VerifierStats pruned, exhaustive;
  ASSERT_TRUE(Verify(prog, ProgramContext::kPacket, {}, &pruned).ok());
  ASSERT_TRUE(
      Verify(prog, ProgramContext::kPacket, exhaustive_opts, &exhaustive)
          .ok());
  EXPECT_GT(pruned.pruned_states, 0u);
  EXPECT_LT(pruned.visited_insns, exhaustive.visited_insns);
}

// --- lint: multi-error collection and the warning catalog -------------------------

VerifyReport LintPacket(std::string_view source) {
  return VerifyAll(Load(source), ProgramContext::kPacket);
}

size_t CountSeverity(const VerifyReport& report, DiagSeverity severity) {
  size_t count = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == severity) ++count;
  }
  return count;
}

testing::AssertionResult HasWarning(const VerifyReport& report,
                                    std::string_view substr) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == DiagSeverity::kWarning &&
        d.message.find(substr) != std::string::npos) {
      return testing::AssertionSuccess();
    }
  }
  return testing::AssertionFailure()
         << "no warning containing '" << substr << "' in report of "
         << report.diagnostics.size() << " diagnostic(s)";
}

TEST(VerifierLint, CollectsErrorsFromSiblingPaths) {
  // One error per branch arm; Verify() stops at the first, VerifyAll()
  // keeps exploring and reports both.
  const std::string_view source = R"(
    .ctx thread
    jeq r1, 0, other
    mov r0, r8
    exit
  other:
    ldxw r0, [r10-200]
    exit
  )";
  Program prog = Load(source);
  VerifyReport report = VerifyAll(prog, ProgramContext::kThread);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(CountSeverity(report, DiagSeverity::kError), 2u);
  EXPECT_FALSE(report.status().ok());
}

TEST(VerifierLint, WarnsOnDeadCode) {
  VerifyReport report = LintPacket(R"(
    mov r0, 0
    exit
    mov r0, 1
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasWarning(report, "dead code"));
}

TEST(VerifierLint, WarnsOnAlwaysTakenBranch) {
  VerifyReport report = LintPacket(R"(
    mov r4, 5
    jeq r4, 5, yes
    mov r0, 1
    exit
  yes:
    mov r0, 2
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasWarning(report, "always taken"));
}

TEST(VerifierLint, WarnsOnNeverTakenBranch) {
  // Range-decided, not constant-decided: the masked byte can never exceed
  // 31, so the guard is provably dead.
  VerifyReport report = LintPacket(R"(
    mov r3, r1
    add r3, 8
    jgt r3, r2, out
    ldxb r4, [r1+0]
    and r4, 31
    jgt r4, 200, out
    mov r0, r4
    exit
  out:
    mov r0, PASS
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasWarning(report, "never taken"));
}

TEST(VerifierLint, WarnsOnUncheckedMapLookup) {
  VerifyReport report = LintPacket(R"(
    .map m array 4 8 4
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    mov r0, 0
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasWarning(report, "NULL-checked"));
}

TEST(VerifierLint, WarnsOnWriteOnlyStackBytes) {
  VerifyReport report = LintPacket(R"(
    mov r6, 42
    stxdw [r10-8], r6
    mov r0, 0
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasWarning(report, "never read"));
}

TEST(VerifierLint, CleanProgramHasNoDiagnostics) {
  VerifyReport report = LintPacket(R"(
    mov r3, r1
    add r3, 4
    jgt r3, r2, out
    ldxw r0, [r1+0]
    exit
  out:
    mov r0, PASS
    exit
  )");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.status().ok());
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(VerifierLint, DiagnosticsCarryDisassemblyAndSortWarningsByPc) {
  VerifyReport report = LintPacket(R"(
    mov r6, 42
    stxdw [r10-8], r6
    mov r0, 0
    exit
    mov r0, 9
    exit
  )");
  EXPECT_TRUE(report.ok());
  ASSERT_GE(report.diagnostics.size(), 2u);
  size_t last_pc = 0;
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_FALSE(d.insn.empty()) << "diagnostic at pc " << d.pc;
    EXPECT_GE(d.pc, last_pc);
    last_pc = d.pc;
    const std::string formatted = FormatDiagnostic(d, report.program);
    EXPECT_NE(formatted.find("verifier warning: "), std::string::npos);
    EXPECT_NE(formatted.find("at insn "), std::string::npos);
    EXPECT_NE(formatted.find("(" + d.insn + ")"), std::string::npos);
  }
}

TEST(VerifierLint, ErrorsComeBeforeWarnings) {
  VerifyReport report = LintPacket(R"(
    mov r6, 1
    stxdw [r10-8], r6
    ldxw r0, [r1+0]
    exit
  )");
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics.front().severity, DiagSeverity::kError);
}

// --- analysis facts ---------------------------------------------------------------

TEST(VerifierFacts, RecordsVisitedInsnsAndDecidedEdges) {
  Program prog = Load(R"(
    mov r4, 5
    jeq r4, 5, yes
    mov r0, 1
    exit
  yes:
    mov r0, 2
    exit
  )");
  AnalysisFacts facts;
  ASSERT_TRUE(
      Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
  ASSERT_EQ(facts.visited.size(), prog.insns.size());
  ASSERT_EQ(facts.edges.size(), prog.insns.size());
  EXPECT_TRUE(facts.visited[0]);
  EXPECT_TRUE(facts.visited[1]);
  EXPECT_FALSE(facts.visited[2]);  // fall-through arm proven dead
  EXPECT_TRUE(facts.visited[4]);
  EXPECT_EQ(facts.edges[1], AnalysisFacts::kEdgeTaken);
}

TEST(VerifierFacts, NotPopulatedOnRejection) {
  Program prog = Load("ldxw r0, [r1+0]\nexit\n");
  AnalysisFacts facts;
  EXPECT_FALSE(
      Verify(prog, ProgramContext::kPacket, {}, nullptr, &facts).ok());
  EXPECT_TRUE(facts.empty());
}

// --- purity (decision memos) -----------------------------------------------------

AnalysisFacts ThreadFacts(std::string_view source) {
  AnalysisFacts facts;
  const Status status =
      Verify(Load(source), ProgramContext::kThread, {}, nullptr, &facts);
  EXPECT_TRUE(status.ok()) << status;
  return facts;
}

// Looks up the tid's slot in `m`, leaving the value pointer in r0 (and
// r6) or returning 1 when the slot is empty.
constexpr char kThreadLookup[] = R"(
    .ctx thread
    .map m array 4 8 8
    and r1, 7
    stxw [r10-4], r1
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jne r0, 0, found
    mov r0, 1
    exit
  found:
    mov r6, r0
)";

TEST(VerifierPurity, GetPriorityClassifierIsPureButNotCacheable) {
  const AnalysisFacts facts =
      ThreadFacts(GetPriorityThreadPolicyAsm("/syrup/t/types"));
  EXPECT_TRUE(facts.pure);
  EXPECT_FALSE(facts.cacheable);  // no flow key in thread context
  ASSERT_EQ(facts.read_maps.size(), 1u);
  EXPECT_TRUE(facts.cache_blockers.empty());
}

TEST(VerifierPurity, ThreadMapUpdateIsImpure) {
  EXPECT_FALSE(ThreadFacts(R"(
    .ctx thread
    .map m hash 4 8 4
    stxw [r10-4], r1
    stxdw [r10-16], r1
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    mov r3, r10
    add r3, -16
    mov r4, 0
    call map_update_elem
    mov r0, 1
    exit
  )").pure);
}

TEST(VerifierPurity, ThreadMapDeleteIsImpure) {
  EXPECT_FALSE(ThreadFacts(R"(
    .ctx thread
    .map m hash 4 8 4
    stxw [r10-4], r1
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_delete_elem
    mov r0, 1
    exit
  )").pure);
}

TEST(VerifierPurity, ThreadStoreThroughValuePointerIsImpure) {
  const AnalysisFacts facts = ThreadFacts(std::string(kThreadLookup) + R"(
    mov r7, 2
    stxdw [r6+0], r7
    mov r0, 2
    exit
  )");
  EXPECT_FALSE(facts.pure);
  EXPECT_EQ(facts.write_maps.size(), 1u);
}

TEST(VerifierPurity, ThreadAtomicThroughValuePointerIsImpure) {
  const AnalysisFacts facts = ThreadFacts(std::string(kThreadLookup) + R"(
    mov r7, 1
    xadddw [r6+0], r7
    mov r0, 2
    exit
  )");
  EXPECT_FALSE(facts.pure);
  EXPECT_EQ(facts.atomic_maps.size(), 1u);
}

TEST(VerifierPurity, ThreadRandomnessAndClockAreImpure) {
  EXPECT_FALSE(ThreadFacts(R"(
    .ctx thread
    call get_prandom_u32
    exit
  )").pure);
  EXPECT_FALSE(ThreadFacts(R"(
    .ctx thread
    call ktime_get_ns
    exit
  )").pure);
}

TEST(VerifierPurity, ThreadTailCallIsImpure) {
  EXPECT_FALSE(ThreadFacts(R"(
    .ctx thread
    .map progs prog_array 4 8 4
    mov r1, 0
    ldmapfd r2, progs
    mov r3, 0
    call tail_call
    mov r0, 1
    exit
  )").pure);
}

TEST(VerifierPurity, PacketCacheabilityIsPurityPlusKeyWindow) {
  auto facts_for = [](const std::string& source) {
    AnalysisFacts facts;
    EXPECT_TRUE(
        Verify(Load(source), ProgramContext::kPacket, {}, nullptr, &facts)
            .ok());
    return facts;
  };
  // Pure and inside the 64-byte window: cacheable.
  const AnalysisFacts mica = facts_for(MicaHomePolicyAsm(8));
  EXPECT_TRUE(mica.pure);
  EXPECT_TRUE(mica.cacheable);
  // Impure (stores the bumped index through the value pointer).
  const AnalysisFacts rr = facts_for(RoundRobinPolicyAsm(6));
  EXPECT_FALSE(rr.pure);
  EXPECT_FALSE(rr.cacheable);
  // Pure, but reads a byte past the flow-key window.
  const AnalysisFacts far = facts_for(R"(
    mov r3, r1
    add r3, 72
    jgt r3, r2, out
    ldxb r0, [r1+70]
    exit
  out:
    mov r0, PASS
    exit
  )");
  EXPECT_TRUE(far.pure);
  EXPECT_FALSE(far.cacheable);
  EXPECT_FALSE(far.cache_blockers.empty());
}

}  // namespace
}  // namespace syrup::bpf
