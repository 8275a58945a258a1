#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace spammass::util {

std::string FormatDouble(double v, int digits) {
  if (v == 0.0) v = 0.0;  // Normalize -0.
  std::string s = StringPrintf("%.*f", digits, v);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  if (s == "-0") s = "0";
  return s;
}

std::string TextTable::ToCell(double v) { return FormatDouble(v); }

void TextTable::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<size_t> width(cols, 0);
  auto measure = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  measure(header_);
  for (const auto& r : rows_) measure(r);

  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < cols; ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out += cell;
      if (i + 1 < cols) out += std::string(width[i] - cell.size() + 2, ' ');
    }
    out += '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    size_t total = 0;
    for (size_t i = 0; i < cols; ++i) total += width[i] + (i + 1 < cols ? 2 : 0);
    out += std::string(total, '-');
    out += '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out;
}

}  // namespace spammass::util
