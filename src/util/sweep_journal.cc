#include "util/sweep_journal.h"

#include <utility>

#include "util/error.h"
#include "util/fsio.h"

namespace spineless::util {
namespace {

constexpr char kHeaderTag[] = "sweepjournal";
constexpr char kVersion[] = "v1";
constexpr char kCellTag[] = "cell";

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

std::string SweepJournal::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '=': out += "\\e"; break;
      default: out += c;
    }
  }
  return out;
}

std::string SweepJournal::unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'e': out += '='; break;
      default: out += s[i];
    }
  }
  return out;
}

SweepJournal::SweepJournal(std::string path, std::string bench,
                           std::string config_sig, bool resume)
    : path_(std::move(path)),
      bench_(std::move(bench)),
      config_sig_(std::move(config_sig)) {
  if (resume && file_exists(path_)) {
    load();
  } else {
    // A fresh (or non-resumed) sweep must not inherit stale records.
    remove_file(path_);
  }
}

std::string SweepJournal::header_line() const {
  return std::string(kHeaderTag) + "\t" + kVersion + "\t" + escape(bench_) +
         "\t" + escape(config_sig_);
}

void SweepJournal::load() {
  std::string contents;
  if (!read_file(path_, &contents)) return;
  std::size_t pos = 0;
  bool header_ok = false;
  bool first = true;
  while (pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) break;  // partial trailing line: crash relic
    const std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    const auto parts = split_tabs(line);
    if (first) {
      first = false;
      header_ok = parts.size() == 4 && parts[0] == kHeaderTag &&
                  parts[1] == kVersion && unescape(parts[2]) == bench_ &&
                  unescape(parts[3]) == config_sig_;
      if (!header_ok) break;
      header_written_ = true;
      continue;
    }
    if (parts.size() < 2 || parts[0] != kCellTag) continue;
    Fields fields;
    for (std::size_t i = 2; i < parts.size(); ++i) {
      const std::size_t eq = parts[i].find('=');
      if (eq == std::string::npos) continue;
      fields[unescape(parts[i].substr(0, eq))] =
          unescape(parts[i].substr(eq + 1));
    }
    records_[unescape(parts[1])] = std::move(fields);  // last record wins
  }
  if (!header_ok) {
    // Different bench/config (or corrupt header): the records cannot be
    // trusted for this run.
    records_.clear();
    header_written_ = false;
    discarded_ = true;
    remove_file(path_);
    return;
  }
  loaded_ = records_.size();
}

bool SweepJournal::has(const std::string& key) const {
  return records_.count(key) != 0;
}

const SweepJournal::Fields* SweepJournal::get(const std::string& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

void SweepJournal::record(const std::string& key, const Fields& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!header_written_) {
    SPINELESS_CHECK_MSG(append_line_durable(path_, header_line()),
                        "cannot write sweep journal " + path_);
    header_written_ = true;
  }
  std::string line = std::string(kCellTag);
  line += '\t';
  line += escape(key);
  for (const auto& [k, v] : fields) {
    line += '\t';
    line += escape(k);
    line += '=';
    line += escape(v);
  }
  SPINELESS_CHECK_MSG(append_line_durable(path_, line),
                      "cannot append to sweep journal " + path_);
  records_[key] = fields;
}

void SweepJournal::remove() { remove_file(path_); }

}  // namespace spineless::util
