#ifndef MODB_UTIL_LITTLE_ENDIAN_H_
#define MODB_UTIL_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace modb::util {

// The fixed-width little-endian codec of the WAL, the R-tree node pages
// and the page file, the same bytes on any host: `Store*` write into a
// buffer, `Put*` append, `Get*` read a range the caller bounds-checked.
// Doubles travel as their IEEE-754 bits.

inline void StoreU32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

inline void StoreU64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, std::uint64_t v) {
  char buf[8];
  StoreU64(buf, v);
  out->append(buf, 8);
}

inline void PutF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline std::uint64_t GetU64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(in[i]);
  return v;
}

inline std::uint32_t GetU32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(in[i]);
  return v;
}

inline double GetF64(const char* in) {
  const std::uint64_t bits = GetU64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace modb::util

#endif  // MODB_UTIL_LITTLE_ENDIAN_H_
