// Resumable-sweep journal: one durably-appended line per completed (or
// permanently failed) cell, so a killed sweep rerun with --resume skips
// finished cells and re-runs only the rest. The repo has no JSON parser,
// so records are a versioned tab-separated key=value line format with its
// own escaping; values round-trip exactly (doubles via %.17g at the caller).
//
// Crash safety: each record is a single short O_APPEND write followed by
// fsync — atomic on POSIX — and the loader ignores a trailing line with no
// newline, so a crash mid-append costs at most that one cell.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spineless::util {

class SweepJournal {
 public:
  // Ordered so a re-serialized record is byte-stable.
  using Fields = std::map<std::string, std::string>;

  // Opens `path`. When `resume` is true and the file starts with a header
  // matching (bench, config_sig), existing records load; otherwise the
  // file is truncated and a fresh header written on the first record.
  // config_sig should encode every flag that changes cell results, so a
  // journal from a different configuration is never silently reused.
  SweepJournal(std::string path, std::string bench, std::string config_sig,
               bool resume);

  bool has(const std::string& key) const;
  const Fields* get(const std::string& key) const;
  std::size_t loaded() const noexcept { return loaded_; }
  // True when --resume found a journal of another bench or configuration
  // and deleted it; whatever else that run left behind is stale too.
  bool discarded() const noexcept { return discarded_; }

  // Durably appends one record (thread-safe; cells complete concurrently).
  void record(const std::string& key, const Fields& fields);

  const std::string& path() const noexcept { return path_; }

  // Deletes the journal file; call after the sweep finishes cleanly and
  // its results are safely in the final BENCH JSON.
  void remove();

  static std::string escape(const std::string& s);
  static std::string unescape(const std::string& s);

 private:
  void load();
  std::string header_line() const;

  std::string path_;
  std::string bench_;
  std::string config_sig_;
  bool header_written_ = false;
  std::size_t loaded_ = 0;
  bool discarded_ = false;
  std::map<std::string, Fields> records_;
  std::mutex mu_;
};

}  // namespace spineless::util
