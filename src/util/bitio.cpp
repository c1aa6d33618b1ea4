#include "util/bitio.hpp"

#include "util/check.hpp"

namespace srsr {

void BitWriter::write_bits(u64 value, u32 nbits) {
  SRSR_CHECK(nbits <= 64, "BitWriter::write_bits: nbits must be <= 64");
  if (nbits == 0) return;
  if (nbits < 64) value &= (1ULL << nbits) - 1;
  bit_count_ += nbits;
  while (nbits > 0) {
    const u32 room = 8 - cur_bits_;
    const u32 take = nbits < room ? nbits : room;
    const u64 chunk = value >> (nbits - take);
    cur_ = static_cast<u8>((cur_ << take) | (chunk & ((1u << take) - 1)));
    cur_bits_ += take;
    nbits -= take;
    if (cur_bits_ == 8) {
      bytes_.push_back(cur_);
      cur_ = 0;
      cur_bits_ = 0;
    }
  }
}

void BitWriter::write_unary(u64 value) {
  while (value >= 32) {
    write_bits(0, 32);
    value -= 32;
  }
  // `value` zeros then a one == a 1 in a field of value+1 bits.
  write_bits(1, static_cast<u32>(value) + 1);
}

void BitWriter::write_gamma(u64 value) {
  SRSR_CHECK(value < ~0ULL, "BitWriter::write_gamma: value overflow");
  const u64 v = value + 1;  // gamma codes positive integers
  const u32 len = bit_width_nonzero(v);
  write_unary(len);
  write_bits(v, len);  // low `len` bits (implicit leading 1 dropped... )
}

void BitWriter::write_delta(u64 value) {
  const u64 v = value + 1;
  const u32 len = bit_width_nonzero(v);
  write_gamma(len);
  write_bits(v, len);
}

void BitWriter::write_zeta(u64 value, u32 k) {
  SRSR_CHECK(k >= 1 && k <= 16, "BitWriter::write_zeta: k must be in [1,16]");
  // Boldi–Vigna zeta_k: find h >= 0 with value+1 in [2^(hk), 2^((h+1)k)),
  // emit unary(h), then the minimal-binary offset in a (hk+k)- or
  // (hk+k-1)-bit field. We use the simpler fixed (hk+k)-bit variant with
  // an explicit left interval, matching BV's "minimal binary" coding.
  const u64 v = value + 1;
  u32 h = 0;
  while (h * k + k <= 63 && v >= (1ULL << (h * k + k))) ++h;
  write_unary(h);
  const u64 lo = 1ULL << (h * k);
  const u64 range_hi = (h * k + k >= 64) ? ~0ULL : (1ULL << (h * k + k));
  const u64 span = range_hi - lo;        // number of values in the shell
  const u64 offset = v - lo;             // in [0, span)
  // Minimal binary code for offset in [0, span): short codes of width
  // w-1 for the first `thresh` values, width w for the rest.
  const u32 w = bit_width_nonzero(span) + ((span & (span - 1)) ? 1 : 0);
  if (w == 0) return;  // span == 1: offset is always 0, no payload bits
  const u64 thresh = (w >= 64 ? 0 : (1ULL << w)) - span;
  if (offset < thresh) {
    write_bits(offset, w - 1);
  } else {
    write_bits(offset + thresh, w);
  }
}

std::vector<u8> BitWriter::finish() {
  if (cur_bits_ > 0) {
    cur_ = static_cast<u8>(cur_ << (8 - cur_bits_));
    bytes_.push_back(cur_);
    cur_ = 0;
    cur_bits_ = 0;
  }
  std::vector<u8> out;
  out.swap(bytes_);
  bit_count_ = 0;
  return out;
}

u64 BitReader::read_bits(u32 nbits) {
  SRSR_CHECK(nbits <= 64, "BitReader::read_bits: nbits must be <= 64");
  SRSR_CHECK(pos_ + nbits <= size_bits_, "BitReader: read past end of stream");
  u64 out = 0;
  u32 remaining = nbits;
  while (remaining > 0) {
    const u64 byte_idx = pos_ >> 3;
    const u32 bit_off = static_cast<u32>(pos_ & 7);
    const u32 avail = 8 - bit_off;
    const u32 take = remaining < avail ? remaining : avail;
    const u8 byte = data_[byte_idx];
    const u8 chunk =
        static_cast<u8>((byte >> (avail - take)) & ((1u << take) - 1));
    out = (out << take) | chunk;
    pos_ += take;
    remaining -= take;
  }
  return out;
}

u64 BitReader::read_unary() {
  u64 zeros = 0;
  for (;;) {
    SRSR_CHECK(pos_ < size_bits_, "BitReader: unary read past end of stream");
    if (read_bits(1) == 1) return zeros;
    ++zeros;
  }
}

u64 BitReader::read_gamma() {
  // Validate BEFORE narrowing: a corrupt unary run of 2^32 + 5 would
  // otherwise truncate to 5 and sail through the length check.
  const u64 len_raw = read_unary();
  SRSR_CHECK(len_raw <= 63, "BitReader::read_gamma: corrupt length");
  const u32 len = static_cast<u32>(len_raw);
  const u64 payload = read_bits(len);
  // write_gamma wrote the low len bits of v (whose bit_width is len), so
  // the implicit leading 1 sits at position len.
  const u64 v = (1ULL << len) | payload;
  return v - 1;
}

u64 BitReader::read_delta() {
  const u64 len_raw = read_gamma();
  SRSR_CHECK(len_raw <= 63, "BitReader::read_delta: corrupt length");
  const u32 len = static_cast<u32>(len_raw);
  const u64 payload = read_bits(len);
  const u64 v = (1ULL << len) | payload;
  return v - 1;
}

u64 BitReader::read_zeta(u32 k) {
  SRSR_CHECK(k >= 1 && k <= 16, "BitReader::read_zeta: k must be in [1,16]");
  const u64 h_raw = read_unary();
  SRSR_CHECK(h_raw * k + k <= 64, "BitReader::read_zeta: corrupt");
  const u32 h = static_cast<u32>(h_raw);
  const u64 lo = 1ULL << (h * k);
  const u64 range_hi = (h * k + k >= 64) ? ~0ULL : (1ULL << (h * k + k));
  const u64 span = range_hi - lo;
  const u32 w = bit_width_nonzero(span) + ((span & (span - 1)) ? 1 : 0);
  if (w == 0) return lo - 1;  // span == 1: offset is always 0
  const u64 thresh = (w >= 64 ? 0 : (1ULL << w)) - span;
  u64 offset = read_bits(w - 1);
  if (offset >= thresh) {
    offset = (offset << 1) | read_bits(1);
    offset -= thresh;
  }
  return lo + offset - 1;
}

void varint_encode(std::vector<u8>& out, u64 value) {
  while (value >= 0x80) {
    out.push_back(static_cast<u8>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<u8>(value));
}

u64 varint_decode(const std::vector<u8>& in, std::size_t& pos) {
  u64 out = 0;
  u32 shift = 0;
  for (;;) {
    SRSR_CHECK(pos < in.size(), "varint_decode: truncated input");
    SRSR_CHECK(shift < 64, "varint_decode: overlong varint");
    const u8 b = in[pos++];
    out |= static_cast<u64>(b & 0x7f) << shift;
    if (!(b & 0x80)) return out;
    shift += 7;
  }
}

}  // namespace srsr
