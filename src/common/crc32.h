#ifndef UPSKILL_COMMON_CRC32_H_
#define UPSKILL_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace upskill {

/// Incremental CRC-32 (IEEE 802.3, reflected): the integrity check shared
/// by serve snapshots, the columnar store, the ingest log, and EM
/// checkpoints. The accumulator form exists because store segments are
/// written (and verified) in streaming chunks that can be far larger than
/// any buffer we'd want to hold.
///
/// Every store open, compaction and snapshot save/load hashes each byte,
/// so the CRC is compute-bound, not I/O-bound: the body is the dispatched
/// simd::Crc32Update kernel (PCLMULQDQ folding on AVX2 hosts,
/// slicing-by-8 otherwise), bit-identical on every backend.
class Crc32Accumulator {
 public:
  void Update(const void* data, size_t size);
  uint32_t Finish() const { return crc_ ^ 0xffffffffu; }

 private:
  uint32_t crc_ = 0xffffffffu;
};

/// One-shot CRC-32 of `data`.
uint32_t Crc32(const void* data, size_t size);

}  // namespace upskill

#endif  // UPSKILL_COMMON_CRC32_H_
