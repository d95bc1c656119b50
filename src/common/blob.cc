#include "common/blob.h"

#include <array>
#include <bit>
#include <cstring>

namespace zonestream::common {

namespace {

// CRC-64/XZ (reflected polynomial), slice-by-8: kTables[0] is the
// classic one-byte table, and kTables[k][i] is kTables[0][i] carried
// through k more zero bytes, so eight lookups fold in one 64-bit word.
constexpr uint64_t kCrc64Poly = 0xC96C5795D7870F42ULL;

using Crc64Tables = std::array<std::array<uint64_t, 256>, 8>;

Crc64Tables BuildCrc64Tables() {
  Crc64Tables tables{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc64Poly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint64_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

uint64_t Crc64(std::string_view data) {
  static const Crc64Tables kTables = BuildCrc64Tables();
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~0ULL;
  // Word loads assume the first byte is the low-order one.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      crc ^= word;
      crc = kTables[7][crc & 0xFF] ^ kTables[6][(crc >> 8) & 0xFF] ^
            kTables[5][(crc >> 16) & 0xFF] ^ kTables[4][(crc >> 24) & 0xFF] ^
            kTables[3][(crc >> 32) & 0xFF] ^ kTables[2][(crc >> 40) & 0xFF] ^
            kTables[1][(crc >> 48) & 0xFF] ^ kTables[0][crc >> 56];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void BlobWriter::PutU8(uint8_t value) {
  data_.push_back(static_cast<char>(value));
}

void BlobWriter::PutU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    data_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void BlobWriter::PutU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    data_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void BlobWriter::PutI64(int64_t value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void BlobWriter::PutF64(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void BlobWriter::PutString(std::string_view value) {
  PutU64(value.size());
  data_.append(value);
}

void BlobWriter::PutWords(const std::vector<uint64_t>& words) {
  PutU64(words.size());
  for (const uint64_t word : words) PutU64(word);
}

std::string_view BlobReader::TakeBytes(size_t n) {
  if (failed_ || n > remaining()) {
    failed_ = true;
    return {};
  }
  const std::string_view bytes = data_.substr(position_, n);
  position_ += n;
  return bytes;
}

uint8_t BlobReader::TakeU8() {
  const std::string_view bytes = TakeBytes(1);
  return bytes.empty() ? 0 : static_cast<uint8_t>(bytes[0]);
}

uint32_t BlobReader::TakeU32() {
  const std::string_view bytes = TakeBytes(4);
  if (bytes.size() != 4) return 0;
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[static_cast<size_t>(i)]);
  }
  return value;
}

uint64_t BlobReader::TakeU64() {
  const std::string_view bytes = TakeBytes(8);
  if (bytes.size() != 8) return 0;
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[static_cast<size_t>(i)]);
  }
  return value;
}

int64_t BlobReader::TakeI64() { return std::bit_cast<int64_t>(TakeU64()); }

double BlobReader::TakeF64() { return std::bit_cast<double>(TakeU64()); }

bool BlobReader::TakeBool() {
  const uint8_t value = TakeU8();
  if (value > 1) {
    failed_ = true;
    return false;
  }
  return value != 0;
}

std::string BlobReader::TakeString() {
  const uint64_t length = TakeU64();
  // Cap the claim by the bytes actually present, so a corrupted length
  // can neither allocate unbounded memory nor read out of range.
  if (failed_ || length > remaining()) {
    failed_ = true;
    return {};
  }
  return std::string(TakeBytes(static_cast<size_t>(length)));
}

std::vector<uint64_t> BlobReader::TakeWords() {
  const uint64_t count = TakeU64();
  if (failed_ || count > remaining() / 8) {
    failed_ = true;
    return {};
  }
  std::vector<uint64_t> words;
  words.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) words.push_back(TakeU64());
  return words;
}

}  // namespace zonestream::common
