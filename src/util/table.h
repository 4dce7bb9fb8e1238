// Aligned console tables for the benchmark harnesses.
//
// Every bench binary prints the same rows/series the paper reports; Table
// keeps that output readable and greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace spineless {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with `precision` significant decimals.
  static std::string fmt(double v, int precision = 3);

  // Render with column alignment and a separator under the header.
  std::string to_string() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Renders a matrix as a compact heatmap-style grid of numbers, with row and
// column labels — the console analogue of the paper's Figure 5 heatmaps.
std::string render_heatmap(const std::vector<std::vector<double>>& cells,
                           const std::vector<std::string>& row_labels,
                           const std::vector<std::string>& col_labels,
                           const std::string& corner_label);

}  // namespace spineless
