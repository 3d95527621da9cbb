#ifndef TOPKDUP_COMMON_STRINGS_H_
#define TOPKDUP_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace topkdup {

/// ASCII-lowercases a copy of `s`.
std::string ToLowerAscii(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Splits `s` on the single character `sep`. Empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace. Empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `s` to `out` as a quoted JSON string: '"' and '\\' escaped,
/// control characters as \n, \r, \t or \u00XX, other bytes verbatim.
void AppendJsonString(std::string* out, std::string_view s);

/// 64-bit FNV-1a of the bytes of `s` (standard offset basis
/// 14695981039346656037). Fault draws use it.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Little-endian fixed-width integers, the byte order of the write-ahead
/// log and its mention payloads.
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_STRINGS_H_
