// Fixed-width text tables for the experiment harnesses.
//
// Every bench binary prints the rows/series of the paper's tables and figures
// in a stable plain-text format; this helper keeps the column alignment in one
// place.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rbs {

/// Accumulates rows of string cells and prints them with aligned columns.
class TextTable {
 public:
  /// Sets the header row. Column count is inferred from it.
  void set_header(std::vector<std::string> header);

  /// Appends a data row; short rows are padded with empty cells.
  void add_row(std::vector<std::string> row);

  /// Convenience: format a double with the given precision.
  static std::string num(double value, int precision = 3);

  /// Convenience: format an integer.
  static std::string num(long long value);

  /// Renders the table (header, separator, rows) to `os`.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rbs
