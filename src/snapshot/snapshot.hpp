// Checkpoint serialization primitives.
//
// A checkpoint is a single binary file:
//
//   magic "SPDGCKPT" | u32 format_version | u32 endian marker (0x01020304)
//   | u64 payload_size | u64 checksum of the payload (FNV-1a-64 folded over
//   8-byte lanes, length-mixed — see fnv1a64) | payload
//
// The payload is written through Writer (append-only byte buffer with typed
// puts) and read back through Reader (bounds-checked typed gets that throw
// SnapshotError instead of reading out of bounds — a corrupted or truncated
// file is always a clean error, never UB). Floats are stored as their exact
// bit patterns, so a round-trip is bit-identical including NaN payloads and
// denormals. Integers are stored in native byte order; the endian marker in
// the header rejects cross-endian restores instead of mis-decoding them.
//
// Format versioning policy: kFormatVersion bumps on any layout change; a
// reader rejects files whose version it does not know (no silent migration
// — checkpoints are tied to the code that wrote them, the golden-replay
// fixture under tests/golden/ is regenerated on a bump). Format 5 stores
// primary state only: indices, counters and chain depths that follow from
// the stored records are recomputed on restore (snapshot/access.hpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace specdag::snapshot {

inline constexpr std::uint32_t kFormatVersion = 5;
inline constexpr char kMagic[8] = {'S', 'P', 'D', 'G', 'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;

// Any checkpoint problem: framing, checksum, truncation, version mismatch,
// or a semantic mismatch found while restoring.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Append-only typed byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  void vec_f32(const std::vector<float>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(float));
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::uint64_t));
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  std::vector<std::uint8_t> buf_;
};

// Bounds-checked typed reads over a byte span. Does not own the bytes.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& data) : Reader(data.data(), data.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::size_t n = length();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::size_t n = length();
    need(n);
    std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return v;
  }
  std::vector<float> vec_f32() { return pod_vector<float>(); }
  std::vector<std::uint64_t> vec_u64() { return pod_vector<std::uint64_t>(); }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> pod_vector() {
    const std::size_t n = length();
    if (n > remaining() / sizeof(T)) {
      throw SnapshotError("snapshot: truncated array (wants " + std::to_string(n) +
                          " elements, " + std::to_string(remaining()) + " bytes left)");
    }
    std::vector<T> v(n);
    std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }
  // A length prefix; rejects lengths that cannot fit in the remaining bytes
  // before any allocation, so corrupt lengths fail cleanly instead of OOMing.
  std::size_t length() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      throw SnapshotError("snapshot: corrupt length prefix " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
  }
  void need(std::size_t n) {
    if (n > size_ - pos_) {
      throw SnapshotError("snapshot: truncated data (need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) + ", have " +
                          std::to_string(size_ - pos_) + ")");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

// Frames `payload` (magic/version/endian/size/checksum header) and writes it
// crash-safely: a temp file in the same directory, fsync'd, then renamed
// over `path` — a SIGKILL mid-write never leaves a half-written checkpoint
// under the final name.
void save_file(const std::string& path, const std::vector<std::uint8_t>& payload);

// Reads and verifies a framed checkpoint; returns the payload. Throws
// SnapshotError on any framing, version, endian, size, or checksum problem.
std::vector<std::uint8_t> load_file(const std::string& path);

// Rng codec: seed plus the full engine state as std::mt19937_64's stream
// text (312 words and the read index), which the in-tree Mt19937_64 writes
// and reads byte for byte, so a restored stream continues bit-exactly.
void save_rng(Writer& w, const Rng& rng);
Rng load_rng(Reader& r);

}  // namespace specdag::snapshot
