// Small string helpers used across the library (no std::format on GCC 12).
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace opwat::util {

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Join items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

[[nodiscard]] std::string to_lower(std::string_view s);

/// printf-style double formatting with fixed decimals.
[[nodiscard]] std::string fmt_double(double v, int decimals);

/// "12.3%"-style percentage from a ratio in [0,1].
[[nodiscard]] std::string fmt_percent(double ratio, int decimals = 1);

/// Thousands-separated integer, e.g. 31690 -> "31,690".
[[nodiscard]] std::string fmt_count(long long v);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Strict parse of a decimal unsigned integer for command-line flags:
/// `s` must be one or more ASCII digits and nothing else (no sign,
/// whitespace or prefix), and the value must fit T and lie in
/// [lo, hi].  nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parse_unsigned(
    std::string_view s, T lo = std::numeric_limits<T>::min(),
    T hi = std::numeric_limits<T>::max()) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v{};
  // from_chars takes no sign, whitespace or prefix for an unsigned T.
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

}  // namespace opwat::util
