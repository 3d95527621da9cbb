#ifndef TOPKDUP_TEXT_TOKENIZE_H_
#define TOPKDUP_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace topkdup::text {

/// The functions below use the C locale's character classes whatever the
/// process locale: whitespace is ' ' and '\t'..'\r', upper case 'A'..'Z',
/// alphanumerics the ASCII digits and letters. Other bytes pass unchanged.

/// Lowercases and splits `s` into maximal runs of ASCII alphanumerics.
/// "M. Stonebraker-Jr" -> {"m", "stonebraker", "jr"}.
std::vector<std::string> WordTokens(std::string_view s);

/// Character q-grams of the lowercased, whitespace-normalized string.
/// The string is padded with (q-1) leading and trailing '#' so that short
/// strings still produce q-grams and boundaries are emphasized, the common
/// convention in approximate string joins. Returns an empty vector for an
/// empty input.
std::vector<std::string> QGrams(std::string_view s, int q);

/// First characters of each word token, concatenated in order.
/// "Sunita Sarawagi" -> "ss".
std::string Initials(std::string_view s);

/// Sorted set of first characters of each word token ("Sunita Sarawagi" ->
/// "ss" sorted -> "ss"). Used for order-insensitive initial comparisons.
std::string SortedInitials(std::string_view s);

/// Collapses runs of whitespace to single spaces, trims, and lowercases.
std::string NormalizeText(std::string_view s);

}  // namespace topkdup::text

#endif  // TOPKDUP_TEXT_TOKENIZE_H_
