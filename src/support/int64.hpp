// Integer arithmetic shared by the reference reducer, the VM and the
// constant folder, so the three agree on every int64 operand pair: +, -,
// * and unary - wrap in two's complement, INT64_MIN / -1 is INT64_MIN
// and INT64_MIN % -1 is 0. None of them is undefined behaviour or a
// trap. Division and modulo by zero are the caller's error to report.
#pragma once

#include <cstdint>

namespace dityco::i64 {

inline std::int64_t add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}
/// Precondition: b != 0.
inline std::int64_t div(std::int64_t a, std::int64_t b) {
  return b == -1 ? neg(a) : a / b;
}
/// Precondition: b != 0.
inline std::int64_t mod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace dityco::i64
