#ifndef UPSKILL_COMMON_BYTES_H_
#define UPSKILL_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace upskill {

// Every binary format in this repo (serve snapshots, the columnar store,
// ingest-log batches, online-EM checkpoints) commits to little-endian
// on-disk layout; raw memcpy of host integers/doubles is only correct on
// little-endian hosts (every platform this library targets). A big-endian
// port would add byte swaps here, in one place.
static_assert(std::endian::native == std::endian::little,
              "binary serialization assumes a little-endian host");

/// Append-only little-endian byte sink used by the binary writers.
class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void I64(int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void VecF64(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    Raw(v.data(), v.size() * sizeof(double));
  }
  void Raw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked sequential reader; every getter returns false once the
/// input is exhausted, and callers convert that into Corruption.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : data_(reinterpret_cast<const char*>(bytes.data())),
        size_(bytes.size()) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, sizeof *v); }
  bool U64(uint64_t* v) { return Raw(v, sizeof *v); }
  bool I32(int32_t* v) { return Raw(v, sizeof *v); }
  bool I64(int64_t* v) { return Raw(v, sizeof *v); }
  bool F64(double* v) { return Raw(v, sizeof *v); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || size_ - pos_ < n) return false;
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool VecF64(std::vector<double>* v) {
    uint32_t n = 0;
    if (!U32(&n) || size_ - pos_ < static_cast<size_t>(n) * sizeof(double)) {
      return false;
    }
    v->resize(n);
    std::memcpy(v->data(), data_ + pos_, n * sizeof(double));
    pos_ += static_cast<size_t>(n) * sizeof(double);
    return true;
  }
  bool Doubles(std::span<double> out) {
    return Raw(out.data(), out.size() * sizeof(double));
  }
  bool Raw(void* out, size_t size) {
    if (size_ - pos_ < size) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }
  bool exhausted() const { return pos_ == size_; }
  size_t position() const { return pos_; }
  /// Unread bytes; decoders check counts against this before sizing
  /// anything from them.
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace upskill

#endif  // UPSKILL_COMMON_BYTES_H_
