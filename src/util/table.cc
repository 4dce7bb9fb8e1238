#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace spineless {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  SPINELESS_CHECK(!header_.empty());
}

Table& Table::add_row(std::vector<std::string> cells) {
  SPINELESS_CHECK_MSG(cells.size() == header_.size(),
                      "row width " << cells.size() << " vs header "
                                   << header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << "\n";
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string render_heatmap(const std::vector<std::vector<double>>& cells,
                           const std::vector<std::string>& row_labels,
                           const std::vector<std::string>& col_labels,
                           const std::string& corner_label) {
  SPINELESS_CHECK(cells.size() == row_labels.size());
  Table t([&] {
    std::vector<std::string> header{corner_label};
    header.insert(header.end(), col_labels.begin(), col_labels.end());
    return header;
  }());
  for (std::size_t r = 0; r < cells.size(); ++r) {
    SPINELESS_CHECK(cells[r].size() == col_labels.size());
    std::vector<std::string> row{row_labels[r]};
    for (double v : cells[r]) row.push_back(Table::fmt(v, 2));
    t.add_row(std::move(row));
  }
  return t.to_string();
}

}  // namespace spineless
