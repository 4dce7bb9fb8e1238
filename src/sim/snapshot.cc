#include "sim/snapshot.h"

#include <cstring>

#include "util/error.h"
#include "util/fsio.h"
#include "util/rng.h"

namespace spineless::sim {
namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8;  // magic + version + hash

// Fixed-width little-endian integers of `width` bytes.
void put_le(std::string* buf, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i)
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_le(const std::string& buf, std::size_t pos, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(buf[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

void overwrite_u64(std::string* buf, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    (*buf)[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

HashChain& HashChain::mix(std::uint64_t v) noexcept {
  h_ = splitmix64(h_ ^ v);
  return *this;
}

HashChain& HashChain::mix(const std::string& s) noexcept {
  mix(s.size());
  for (char c : s) h_ = splitmix64(h_ ^ static_cast<unsigned char>(c));
  return *this;
}

std::string section_tag_name(std::uint32_t tag) {
  std::string name;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const char c = static_cast<char>((tag >> shift) & 0xff);
    name += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

SnapshotWriter::SnapshotWriter(std::uint64_t config_hash) {
  buf_.append(kSnapshotMagic, sizeof kSnapshotMagic);
  put_le(&buf_, kSnapshotVersion, 4);
  put_le(&buf_, config_hash, 8);
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  SPINELESS_CHECK(!in_section_);
  in_section_ = true;
  put_le(&buf_, tag, 4);
  section_len_at_ = buf_.size();
  put_le(&buf_, 0, 8);  // patched by end_section
}

void SnapshotWriter::end_section() {
  SPINELESS_CHECK(in_section_);
  in_section_ = false;
  overwrite_u64(&buf_, section_len_at_,
                buf_.size() - (section_len_at_ + 8));
}

void SnapshotWriter::put(std::uint64_t v, int width) {
  SPINELESS_CHECK(in_section_);
  put_le(&buf_, v, width);
}

void SnapshotWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void SnapshotWriter::rng_state(const std::array<std::uint64_t, 4>& s) {
  for (std::uint64_t w : s) u64(w);
}

std::string SnapshotWriter::seal() const {
  SPINELESS_CHECK(!in_section_);
  std::string out = buf_;
  put_le(&out, fnv1a(out), 8);
  return out;
}

bool SnapshotWriter::write_file(const std::string& path) {
  return util::atomic_write_file(path, seal());
}

SnapshotReader::SnapshotReader(std::string bytes) : bytes_(std::move(bytes)) {
  SPINELESS_CHECK_MSG(bytes_.size() >= kHeaderSize + 8,
                      "snapshot truncated (" << bytes_.size() << " bytes)");
  SPINELESS_CHECK_MSG(
      std::memcmp(bytes_.data(), kSnapshotMagic, sizeof kSnapshotMagic) == 0,
      "not a spineless snapshot (bad magic)");
  payload_end_ = bytes_.size() - 8;
  const std::uint64_t want = get_le(bytes_, payload_end_, 8);
  const std::uint64_t got = fnv1a({bytes_.data(), payload_end_});
  SPINELESS_CHECK_MSG(want == got, "snapshot checksum mismatch (corrupt)");
  const std::uint64_t version = get_le(bytes_, 8, 4);
  SPINELESS_CHECK_MSG(version == kSnapshotVersion,
                      "snapshot version " << version << ", expected "
                                          << kSnapshotVersion);
  config_hash_ = get_le(bytes_, 12, 8);
  pos_ = kHeaderSize;
}

bool SnapshotReader::load_file(const std::string& path,
                               std::string* bytes_out) {
  if (!util::file_exists(path)) return false;
  SPINELESS_CHECK_MSG(util::read_file(path, bytes_out),
                      "cannot read snapshot " << path);
  return true;
}

void SnapshotReader::fail(const std::string& what) const {
  throw Error("snapshot section '" + section_tag_name(section_tag_) +
              "': " + what);
}

std::uint64_t SnapshotReader::take(int width) {
  if (!in_section_ || static_cast<std::size_t>(width) > section_end_ - pos_)
    fail("section overrun");
  const std::uint64_t v = get_le(bytes_, pos_, width);
  pos_ += static_cast<std::size_t>(width);
  return v;
}

std::uint64_t SnapshotReader::take_count(std::size_t min_bytes,
                                         std::size_t per) {
  const std::uint64_t n = take(8);
  const std::uint64_t units = n / per + (n % per != 0 ? 1 : 0);
  const std::size_t left = section_end_ - pos_;
  if (min_bytes > 0 && units > left / min_bytes) {
    fail("count " + std::to_string(n) + " needs at least " +
         std::to_string(min_bytes) + " bytes per " +
         (per > 1 ? std::to_string(per) + " elements" : "element") +
         ", but only " + std::to_string(left) + " bytes are left");
  }
  return n;
}

void SnapshotReader::expect_section(std::uint32_t tag) {
  SPINELESS_CHECK(!in_section_);
  SPINELESS_CHECK_MSG(pos_ + 12 <= payload_end_,
                      "snapshot ends before section " << tag);
  const auto got = static_cast<std::uint32_t>(get_le(bytes_, pos_, 4));
  SPINELESS_CHECK_MSG(got == tag, "snapshot section " << got << ", expected "
                                                      << tag);
  const std::uint64_t len = get_le(bytes_, pos_ + 4, 8);
  pos_ += 12;
  SPINELESS_CHECK_MSG(len <= payload_end_ - pos_,
                      "snapshot section " << tag << " overruns file");
  section_end_ = pos_ + len;
  section_tag_ = tag;
  in_section_ = true;
}

void SnapshotReader::end_section() {
  SPINELESS_CHECK_MSG(in_section_ && pos_ == section_end_,
                      "snapshot section not fully consumed ("
                          << (section_end_ - pos_) << " bytes left)");
  in_section_ = false;
}

void SnapshotReader::f64(double& v) {
  std::uint64_t bits = 0;
  u64(bits);
  std::memcpy(&v, &bits, sizeof v);
}

void SnapshotReader::rng_state(std::array<std::uint64_t, 4>& s) {
  for (auto& w : s) u64(w);
}

bool SnapshotReader::at_end() const noexcept {
  return !in_section_ && pos_ == payload_end_;
}

void snapshot_patch_u64(const std::string& path, std::uint32_t tag,
                        std::size_t field_index, std::uint64_t value) {
  std::string bytes;
  SPINELESS_CHECK_MSG(SnapshotReader::load_file(path, &bytes),
                      "no snapshot at " << path);
  SPINELESS_CHECK(bytes.size() >= kHeaderSize + 8);
  const std::size_t payload_end = bytes.size() - 8;
  std::size_t pos = kHeaderSize;
  while (pos + 12 <= payload_end) {
    const auto got = static_cast<std::uint32_t>(get_le(bytes, pos, 4));
    const std::uint64_t len = get_le(bytes, pos + 4, 8);
    pos += 12;
    if (got == tag) {
      const std::size_t at = pos + field_index * 8;
      SPINELESS_CHECK_MSG(at + 8 <= pos + len,
                          "patch field " << field_index
                                         << " outside section " << tag);
      overwrite_u64(&bytes, at, value);
      overwrite_u64(&bytes, payload_end, fnv1a({bytes.data(), payload_end}));
      SPINELESS_CHECK(util::atomic_write_file(path, bytes));
      return;
    }
    pos += len;
  }
  SPINELESS_CHECK_MSG(false, "section " << tag << " not found in " << path);
}

}  // namespace spineless::sim
