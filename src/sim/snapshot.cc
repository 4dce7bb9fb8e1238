#include "sim/snapshot.h"

#include <cstring>

#include "util/error.h"
#include "util/fsio.h"
#include "util/rng.h"

namespace spineless::sim {
namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8;  // magic + version + hash

void put_u32(std::string* buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string* buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const std::string& buf, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(buf[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& buf, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
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

SnapshotWriter::SnapshotWriter(std::uint64_t config_hash) {
  buf_.append(kSnapshotMagic, sizeof kSnapshotMagic);
  put_u32(&buf_, kSnapshotVersion);
  put_u64(&buf_, config_hash);
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  SPINELESS_CHECK(!in_section_);
  in_section_ = true;
  put_u32(&buf_, tag);
  section_len_at_ = buf_.size();
  put_u64(&buf_, 0);  // patched by end_section
}

void SnapshotWriter::end_section() {
  SPINELESS_CHECK(in_section_);
  in_section_ = false;
  overwrite_u64(&buf_, section_len_at_,
                buf_.size() - (section_len_at_ + 8));
}

void SnapshotWriter::u8(std::uint8_t v) {
  SPINELESS_CHECK(in_section_);
  buf_.push_back(static_cast<char>(v));
}

void SnapshotWriter::u32(std::uint32_t v) {
  SPINELESS_CHECK(in_section_);
  put_u32(&buf_, v);
}

void SnapshotWriter::u64(std::uint64_t v) {
  SPINELESS_CHECK(in_section_);
  put_u64(&buf_, v);
}

void SnapshotWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void SnapshotWriter::str(const std::string& s) {
  u64(s.size());
  SPINELESS_CHECK(in_section_);
  buf_ += s;
}

void SnapshotWriter::rng_state(const std::array<std::uint64_t, 4>& s) {
  for (std::uint64_t w : s) u64(w);
}

std::string SnapshotWriter::seal() const {
  SPINELESS_CHECK(!in_section_);
  std::string out = buf_;
  put_u64(&out, fnv1a(out));
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
  const std::uint64_t want = get_u64(bytes_, payload_end_);
  const std::uint64_t got = fnv1a({bytes_.data(), payload_end_});
  SPINELESS_CHECK_MSG(want == got, "snapshot checksum mismatch (corrupt)");
  const std::uint32_t version = get_u32(bytes_, 8);
  SPINELESS_CHECK_MSG(version == kSnapshotVersion,
                      "snapshot version " << version << ", expected "
                                          << kSnapshotVersion);
  config_hash_ = get_u64(bytes_, 12);
  pos_ = kHeaderSize;
}

bool SnapshotReader::load_file(const std::string& path,
                               std::string* bytes_out) {
  if (!util::file_exists(path)) return false;
  SPINELESS_CHECK_MSG(util::read_file(path, bytes_out),
                      "cannot read snapshot " << path);
  return true;
}

void SnapshotReader::need(std::size_t n) const {
  SPINELESS_CHECK_MSG(in_section_ && pos_ + n <= section_end_,
                      "snapshot section overrun");
}

void SnapshotReader::expect_section(std::uint32_t tag) {
  SPINELESS_CHECK(!in_section_);
  SPINELESS_CHECK_MSG(pos_ + 12 <= payload_end_,
                      "snapshot ends before section " << tag);
  const std::uint32_t got = get_u32(bytes_, pos_);
  SPINELESS_CHECK_MSG(got == tag, "snapshot section " << got << ", expected "
                                                      << tag);
  const std::uint64_t len = get_u64(bytes_, pos_ + 4);
  pos_ += 12;
  SPINELESS_CHECK_MSG(pos_ + len <= payload_end_,
                      "snapshot section " << tag << " overruns file");
  section_end_ = pos_ + len;
  in_section_ = true;
}

void SnapshotReader::end_section() {
  SPINELESS_CHECK_MSG(in_section_ && pos_ == section_end_,
                      "snapshot section not fully consumed ("
                          << (section_end_ - pos_) << " bytes left)");
  in_section_ = false;
}

std::uint8_t SnapshotReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t SnapshotReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(bytes_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(bytes_, pos_);
  pos_ += 8;
  return v;
}

std::int64_t SnapshotReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double SnapshotReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string SnapshotReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s = bytes_.substr(pos_, n);
  pos_ += n;
  return s;
}

std::array<std::uint64_t, 4> SnapshotReader::rng_state() {
  std::array<std::uint64_t, 4> s;
  for (auto& w : s) w = u64();
  return s;
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
    const std::uint32_t got = get_u32(bytes, pos);
    const std::uint64_t len = get_u64(bytes, pos + 4);
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
