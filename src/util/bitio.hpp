// Bit-level and byte-level integer codecs.
//
// These are the storage substrate for srsr::graph::CompressedGraph, the
// from-scratch reimplementation of the Boldi–Vigna WebGraph successor
// compression that the paper's original (Java) system was built on.
// Codes implemented:
//   - unary            : n zeros followed by a one
//   - Elias gamma      : unary(len) + binary payload
//   - Elias delta      : gamma(len) + binary payload
//   - zeta_k (BV 2004) : the WebGraph workhorse for successor gaps
//   - LEB128 varint    : byte-aligned, used for file headers / counts
//
// All codes operate on non-negative integers; callers map signed gaps via
// the usual zig-zag transform (see zigzag_encode / zigzag_decode).
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/common.hpp"

namespace srsr {

/// Maps a signed value onto unsigned so small magnitudes stay small:
/// 0,-1,1,-2,2,... -> 0,1,2,3,4,...
inline u64 zigzag_encode(i64 v) noexcept {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}

inline i64 zigzag_decode(u64 v) noexcept {
  return static_cast<i64>(v >> 1) ^ -static_cast<i64>(v & 1);
}

/// Append-only MSB-first bit sink backed by a byte vector.
class BitWriter {
 public:
  BitWriter() = default;

  /// Writes the low `nbits` bits of `value`, most significant first.
  /// nbits may be 0 (no-op) up to 64.
  void write_bits(u64 value, u32 nbits);

  /// Unary code: `value` zeros, then a one. O(value) bits — callers keep
  /// values small (code lengths), never raw payloads.
  void write_unary(u64 value);

  /// Elias gamma code of value >= 0 (internally codes value+1).
  void write_gamma(u64 value);

  /// Elias delta code of value >= 0.
  void write_delta(u64 value);

  /// Zeta_k code of value >= 0 (Boldi–Vigna). k in [1, 16]; k=3 is the
  /// WebGraph default for gap streams.
  void write_zeta(u64 value, u32 k);

  /// Flushes the current partial byte (zero-padded) and returns the
  /// accumulated buffer. The writer is left empty and reusable.
  std::vector<u8> finish();

  /// Bits written so far (excluding final padding).
  u64 bit_count() const noexcept { return bit_count_; }

 private:
  std::vector<u8> bytes_;
  u64 bit_count_ = 0;
  u8 cur_ = 0;
  u32 cur_bits_ = 0;
};

/// MSB-first bit source over a byte span. Reads past the logical end of
/// stream throw srsr::Error.
class BitReader {
 public:
  BitReader(const u8* data, std::size_t size_bytes)
      : data_(data), size_bits_(static_cast<u64>(size_bytes) * 8) {}

  explicit BitReader(const std::vector<u8>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads `nbits` (0..64) bits, most significant first.
  u64 read_bits(u32 nbits);

  u64 read_unary();
  u64 read_gamma();
  u64 read_delta();
  u64 read_zeta(u32 k);

  u64 bit_pos() const noexcept { return pos_; }
  void seek_bit(u64 bit) {
    SRSR_CHECK(bit <= size_bits_, "BitReader::seek_bit: out of range");
    pos_ = bit;
  }

 private:
  const u8* data_;
  u64 size_bits_;
  u64 pos_ = 0;
};

/// Appends value as LEB128 (7 bits per byte, continuation high bit).
void varint_encode(std::vector<u8>& out, u64 value);

/// Decodes a LEB128 varint starting at `pos`; advances `pos`.
u64 varint_decode(const std::vector<u8>& in, std::size_t& pos);

/// Position of the highest set bit (0-based); value must be non-zero.
inline u32 bit_width_nonzero(u64 v) noexcept {
  return 63u - static_cast<u32>(__builtin_clzll(v));
}

}  // namespace srsr
