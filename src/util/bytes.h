// Byte-buffer helpers and a tiny binary serialization reader/writer used by
// the protocol layer and the management plane's persistence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nlss::util {

using Bytes = std::vector<std::uint8_t>;

/// Fill `out` with a deterministic pattern derived from `seed`; used by tests
/// and workload generators to produce verifiable payloads.
void FillPattern(std::span<std::uint8_t> out, std::uint64_t seed);

/// Check that `data` matches the pattern produced by FillPattern(seed).
bool CheckPattern(std::span<const std::uint8_t> data, std::uint64_t seed);

/// One page-aligned piece of a range split by SplitPages: `len` units at
/// `in_page` within page `page`, which are units [at, at + len) of the range.
struct PagePiece {
  std::uint64_t page;
  std::uint32_t in_page;
  std::uint32_t len;
  std::size_t at;
};

/// Split the range [offset, offset + length) into its per-page pieces, in
/// order.  Units are whatever `offset` counts (bytes, blocks).
inline std::vector<PagePiece> SplitPages(std::uint64_t offset,
                                         std::uint64_t length,
                                         std::uint32_t page_size) {
  std::vector<PagePiece> pieces;
  for (std::uint64_t at = 0; at < length;) {
    const std::uint64_t pos = offset + at;
    const auto in_page = static_cast<std::uint32_t>(pos % page_size);
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(length - at, page_size - in_page));
    pieces.push_back(PagePiece{pos / page_size, in_page, len,
                               static_cast<std::size_t>(at)});
    at += len;
  }
  return pieces;
}

/// Little-endian binary writer.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void Str(std::string_view s);                // length-prefixed
  void Raw(std::span<const std::uint8_t> d);   // unprefixed

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Little-endian binary reader; throws std::out_of_range on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::string Str();
  Bytes Raw(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  void Need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw std::out_of_range("ByteReader: buffer underrun");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace nlss::util
