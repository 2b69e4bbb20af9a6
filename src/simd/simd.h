#ifndef UPSKILL_SIMD_SIMD_H_
#define UPSKILL_SIMD_SIMD_H_

namespace upskill {
namespace simd {

/// Vector backend driving the dispatched kernels (batched log-probs, the
/// whole-sequence assignment DP, the CRC-32 behind every on-disk
/// checksum). The backend is picked once per process:
///
///   compile time  — kAvx2 on x86-64 (the AVX2 bodies live in a dedicated
///                   translation unit built with -mavx2 -mpclmul; the CPU
///                   must report both), kScalar everywhere else (aarch64
///                   included);
///   run time      — demoted to kScalar when the CPU lacks the compiled
///                   instruction set (cpuid / baseline check) or when the
///                   UPSKILL_FORCE_SCALAR environment variable is set to
///                   anything but "" or "0" (the kill switch CI uses to
///                   keep the fallback path green).
///
/// Every dispatched kernel is bitwise identical across backends for the
/// double kernels and bit-exact for the CRC, so the choice can never
/// change results — only speed. That is what lets tests sweep backends
/// and compare with operator==. No library code outside src/simd/ reads
/// the backend.
enum class Backend {
  kScalar,
  kAvx2,
};

/// The backend every dispatched kernel uses right now.
Backend ActiveBackend();

/// Stable lowercase name of ActiveBackend(): "scalar" or "avx2".
const char* BackendName();

/// Test/bench hook: forces the scalar fallback on (true) or restores the
/// detected backend (false), overriding UPSKILL_FORCE_SCALAR. Affects
/// subsequent kernel dispatches process-wide; not for production code.
void ForceScalarForTest(bool force);

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_SIMD_H_
