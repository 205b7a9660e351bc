// Functional (bit-accurate at single precision) semantics of the 27 modeled
// FP opcodes. This is the "golden" datapath: what an error-free FPU
// computes. Timing errors and approximate memoization perturb results at
// higher layers; the functional core itself is exact.
//
// Defined inline so the opcode switch folds away where the opcode is
// loop-invariant (one vector instruction across a wavefront).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "fpu/instruction.hpp"
#include "fpu/opcode.hpp"

namespace tmemo {

/// Evaluates `op` on up to three single-precision operands, rounding to
/// single precision exactly as the hardware datapath would.
[[nodiscard]] inline float evaluate_fp_op(
    FpOpcode op, const std::array<float, kMaxOperands>& v) noexcept {
  const float a = v[0];
  const float b = v[1];
  const float c = v[2];
  switch (op) {
    case FpOpcode::kAdd:    return a + b;
    case FpOpcode::kSub:    return a - b;
    case FpOpcode::kMul:    return a * b;
    case FpOpcode::kMulAdd: return ::fmaf(a, b, c);
    case FpOpcode::kMin:    return ::fminf(a, b);
    case FpOpcode::kMax:    return ::fmaxf(a, b);
    case FpOpcode::kFloor:  return ::floorf(a);
    case FpOpcode::kCeil:   return ::ceilf(a);
    case FpOpcode::kTrunc:  return ::truncf(a);
    case FpOpcode::kRndNe:  return ::nearbyintf(a);
    case FpOpcode::kFract:  return a - ::floorf(a);
    case FpOpcode::kAbs:    return ::fabsf(a);
    case FpOpcode::kNeg:    return -a;
    case FpOpcode::kSqrt:   return ::sqrtf(a);
    case FpOpcode::kRsqrt:  return 1.0f / ::sqrtf(a);
    case FpOpcode::kRecip:  return 1.0f / a;
    case FpOpcode::kSin:    return ::sinf(a);
    case FpOpcode::kCos:    return ::cosf(a);
    case FpOpcode::kExp2:   return ::exp2f(a);
    case FpOpcode::kLog2:   return ::log2f(a);
    case FpOpcode::kFp2Int: {
      // FLT_TO_INT with saturation, result materialized back into an FP reg
      // (Evergreen keeps integer values in the shared GPR file).
      if (std::isnan(a)) return 0.0f;
      const float clamped =
          ::fminf(::fmaxf(a, -2147483648.0f), 2147483520.0f);
      return static_cast<float>(static_cast<std::int32_t>(clamped));
    }
    case FpOpcode::kInt2Fp: return ::truncf(a);
    // SETE/SETNE are the ISA's own bit-exact comparison ops; an epsilon
    // here would change the architected semantics being modeled.
    case FpOpcode::kSetE:   return a == b ? 1.0f : 0.0f;  // tmemo-lint: allow(float-equality)
    case FpOpcode::kSetGt:  return a > b ? 1.0f : 0.0f;
    case FpOpcode::kSetGe:  return a >= b ? 1.0f : 0.0f;
    case FpOpcode::kSetNe:  return a != b ? 1.0f : 0.0f;  // tmemo-lint: allow(float-equality)
    case FpOpcode::kCndGe:  return a >= 0.0f ? b : c;
  }
  return 0.0f;
}

/// Convenience overload for a dynamic instruction.
[[nodiscard]] inline float evaluate_fp_op(const FpInstruction& ins) noexcept {
  return evaluate_fp_op(ins.opcode, ins.operands);
}

} // namespace tmemo
