#include "common/crc32.h"

#include "simd/kernels.h"

namespace upskill {

void Crc32Accumulator::Update(const void* data, size_t size) {
  crc_ = simd::Crc32Update(crc_, data, size);
}

uint32_t Crc32(const void* data, size_t size) {
  Crc32Accumulator crc;
  crc.Update(data, size);
  return crc.Finish();
}

}  // namespace upskill
