#include "text/tokenize.h"

#include <algorithm>

#include "common/check.h"

namespace topkdup::text {

namespace {

// The character classes of the C locale, tested directly: the <cctype>
// calls would consult the process locale, which an embedding application
// may set, and cost a call per byte.

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsWordChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

char LowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (IsWordChar(c)) {
      cur.push_back(LowerChar(c));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::vector<std::string> QGrams(std::string_view s, int q) {
  TOPKDUP_CHECK(q >= 1);
  const std::string norm = NormalizeText(s);
  if (norm.empty()) return {};
  std::string padded;
  padded.reserve(norm.size() + 2 * static_cast<size_t>(q - 1));
  padded.append(static_cast<size_t>(q - 1), '#');
  padded.append(norm);
  padded.append(static_cast<size_t>(q - 1), '#');
  std::vector<std::string> out;
  if (padded.size() < static_cast<size_t>(q)) return out;
  out.reserve(padded.size() - static_cast<size_t>(q) + 1);
  for (size_t i = 0; i + static_cast<size_t>(q) <= padded.size(); ++i) {
    out.push_back(padded.substr(i, static_cast<size_t>(q)));
  }
  return out;
}

std::string Initials(std::string_view s) {
  std::string out;
  for (const std::string& w : WordTokens(s)) out.push_back(w[0]);
  return out;
}

std::string SortedInitials(std::string_view s) {
  std::string out = Initials(s);
  std::sort(out.begin(), out.end());
  return out;
}

std::string NormalizeText(std::string_view s) {
  // The output is never longer than the input: each kept byte and each
  // collapsed space run before one emits one byte.
  std::string out(s.size(), '\0');
  size_t n = 0;
  bool pending_space = false;
  for (char c : s) {
    if (IsSpace(c)) {
      if (n > 0) pending_space = true;
    } else {
      if (pending_space) {
        out[n++] = ' ';
        pending_space = false;
      }
      out[n++] = LowerChar(c);
    }
  }
  out.resize(n);
  return out;
}

}  // namespace topkdup::text
