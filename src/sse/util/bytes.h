#ifndef SSE_UTIL_BYTES_H_
#define SSE_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sse/util/result.h"

namespace sse {

/// Owning byte buffer used for keys, ciphertexts, tokens and wire payloads.
using Bytes = std::vector<uint8_t>;

/// Non-owning read-only view over bytes.
using BytesView = std::span<const uint8_t>;

/// Copies a view into an owning buffer.
Bytes ToBytes(BytesView view);

/// Reinterprets a string's contents as bytes (UTF-8 or binary passthrough).
Bytes StringToBytes(std::string_view s);

/// Views a string's contents as bytes without copying.
inline BytesView AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// Reinterprets bytes as a std::string container (may contain NUL bytes).
std::string BytesToString(BytesView b);

/// Lower-case hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string HexEncode(BytesView b);

/// Parses lower- or upper-case hex. Fails on odd length or non-hex chars.
Result<Bytes> HexDecode(std::string_view hex);

/// Returns `a || b`.
Bytes Concat(BytesView a, BytesView b);
Bytes Concat(BytesView a, BytesView b, BytesView c);

/// XORs `src` into `dst` in place. Requires equal sizes.
Status XorInPlace(Bytes& dst, BytesView src);

/// Returns `a ^ b`. Requires equal sizes.
Result<Bytes> Xor(BytesView a, BytesView b);

/// Constant-time equality: runtime depends only on the lengths, never on
/// the contents. Unequal lengths compare unequal (in variable time, which
/// is fine because lengths are public in all our protocols).
bool ConstantTimeEqual(BytesView a, BytesView b);

/// Lexicographic three-way compare, for ordering tokens in the B+-tree.
int Compare(BytesView a, BytesView b);

}  // namespace sse

#endif  // SSE_UTIL_BYTES_H_
