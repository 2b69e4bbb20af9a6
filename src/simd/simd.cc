#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace upskill {
namespace simd {

namespace {

// Best backend this binary was compiled for. The AVX2 kernel bodies live
// in kernels_avx2.cc (built with -mavx2 -mpclmul); this TU only decides
// whether it is safe and wanted to call into them.
constexpr Backend CompiledBackend() {
#if defined(__x86_64__) || defined(_M_X64)
  return Backend::kAvx2;
#else
  return Backend::kScalar;
#endif
}

bool EnvForcesScalar() {
  const char* env = std::getenv("UPSKILL_FORCE_SCALAR");
  if (env == nullptr) return false;
  return env[0] != '\0' && std::strcmp(env, "0") != 0;
}

bool CpuSupportsCompiledBackend() {
#if defined(__x86_64__) || defined(_M_X64)
  // The AVX2 backend includes the carry-less-multiply CRC-32 kernel.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("pclmul") != 0;
#else
  // The scalar backend needs nothing.
  return true;
#endif
}

Backend DetectBackend() {
  if (EnvForcesScalar()) return Backend::kScalar;
  if (!CpuSupportsCompiledBackend()) return Backend::kScalar;
  return CompiledBackend();
}

// 0 = undecided, otherwise 1 + static_cast<int>(Backend). Plain atomic:
// racing first calls all compute the same value.
std::atomic<int> g_backend{0};

}  // namespace

Backend ActiveBackend() {
  int state = g_backend.load(std::memory_order_acquire);
  if (state == 0) {
    state = 1 + static_cast<int>(DetectBackend());
    g_backend.store(state, std::memory_order_release);
  }
  return static_cast<Backend>(state - 1);
}

const char* BackendName() {
  switch (ActiveBackend()) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "unknown";
}

void ForceScalarForTest(bool force) {
  const Backend backend = force ? Backend::kScalar : DetectBackend();
  g_backend.store(1 + static_cast<int>(backend), std::memory_order_release);
}

}  // namespace simd
}  // namespace upskill
