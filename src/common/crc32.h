#ifndef TOPKDUP_COMMON_CRC32_H_
#define TOPKDUP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace topkdup {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) over `size` bytes.
/// The checksum of the write-ahead log (serve/wal.h): its file header and
/// every frame use this exact function.
uint32_t Crc32(const uint8_t* data, size_t size);

inline uint32_t Crc32(std::string_view data) {
  return Crc32(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_CRC32_H_
