// Aligned plain-text tables for the experiment harnesses.
// Every bench binary prints its paper table/figure series through TextTable
// so the output is uniform and diffable.

#ifndef SPAMMASS_UTIL_TABLE_H_
#define SPAMMASS_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace spammass::util {

/// Builds a table row by row and renders it with aligned columns.
class TextTable {
 public:
  /// Sets the header row (also fixes the column count).
  void SetHeader(std::vector<std::string> header);

  /// Appends a row; short rows are padded with empty cells.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats each cell with default formatting.
  template <typename... Args>
  void AddRowValues(const Args&... args) {
    AddRow({ToCell(args)...});
  }

  size_t num_rows() const { return rows_.size(); }

  /// Renders with a header separator and two-space column gaps.
  std::string ToString() const;

  /// Streams ToString().
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t) {
    return os << t.ToString();
  }

 private:
  static std::string ToCell(const std::string& v) { return v; }
  static std::string ToCell(const char* v) { return v; }
  static std::string ToCell(double v);
  static std::string ToCell(float v) { return ToCell(static_cast<double>(v)); }
  template <typename T>
  static std::string ToCell(T v)
    requires std::is_integral_v<T>
  {
    return std::to_string(v);
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double in fixed notation with `digits` decimals (0 to 200),
/// correctly rounded like printf's "%.*f", then trims trailing zeros
/// ("2.70" -> "2.7", "-0.00" -> "0").
std::string FormatDouble(double v, int digits = 4);

}  // namespace spammass::util

#endif  // SPAMMASS_UTIL_TABLE_H_
