// Versioned binary snapshot format for deterministic checkpoint/restore.
//
// Layout:
//   magic "SPNLCKPT" | u32 version | u64 config_hash
//   { u32 section_tag | u64 payload_len | payload } *
//   u64 checksum (FNV-1a over everything before it)
//
// All integers are fixed-width little-endian (the simulator only targets
// little-endian hosts; a CHECK at load refuses anything else via the
// checksum anyway). Fixed-width fields keep offsets predictable, which the
// auditor's negative tests exploit through snapshot_patch_u64().
//
// The reader is strict: sections must be consumed in the order written and
// fully consumed before end_section() — version drift fails loudly instead
// of silently misaligning state. It is also bounded: a count read from a
// snapshot is refused (util Error naming the section) unless its elements
// could fit, at their minimum wire size, in the bytes the section has
// left — a corrupted count fails before anything is allocated for it.
//
// Field lists: SnapshotWriter and SnapshotReader share one set of
// reference-taking field calls, so an owner names each field once, in a
// `template <class Io, class Self> static void fields(Io& io, Self& s)`
// that save_state calls as fields(w, *this) (Self deduces const) and
// load_state as fields(r, *this). Each call names its wire width
// (io.i64(s.clock_)); the writer widens the member to it and the reader
// narrows back. `if constexpr (!Io::kSaving)` marks the few steps only
// restore takes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace spineless::sim {

inline constexpr char kSnapshotMagic[8] = {'S', 'P', 'N', 'L',
                                           'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

// 64-bit FNV-1a over `bytes` in order: the snapshot checksum, and the
// serving layer's content hashes.
std::uint64_t fnv1a(std::string_view bytes) noexcept;

// Order-sensitive chained hash for building config_hash values: a snapshot
// is only restorable into an identically-configured experiment (same seed,
// topology, routing mode, intra_jobs, ...).
class HashChain {
 public:
  HashChain& mix(std::uint64_t v) noexcept;
  HashChain& mix(const std::string& s) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x53504e4c434b5054ULL;  // "SPNLCKPT"
};

// "HYBR" from 0x48594252 — for error messages.
std::string section_tag_name(std::uint32_t tag);

class SnapshotWriter {
 public:
  static constexpr bool kSaving = true;

  explicit SnapshotWriter(std::uint64_t config_hash);

  void begin_section(std::uint32_t tag);
  void end_section();
  template <class Body>
  void section(std::uint32_t tag, Body&& body) {
    begin_section(tag);
    body();
    end_section();
  }

  // Field calls (see the header comment); the reader's mirror them.
  template <class T> void u8(const T& v) { put(wide(v), 1); }
  template <class T> void u32(const T& v) { put(wide(v), 4); }
  template <class T> void u64(const T& v) { put(wide(v), 8); }
  template <class T> void i64(const T& v) { put(wide(v), 8); }
  void f64(double v);
  void rng_state(const std::array<std::uint64_t, 4>& s);
  // A value the restoring side already knows (a shape or count fixed by
  // reconstruction): written as a W, checked against on restore.
  template <class W = std::uint64_t, class T>
  void expect(const T& n, const char*) { put(wide(n), sizeof(W)); }
  // A count the restoring side sizes a container by; min_bytes and per
  // only matter on restore (see SnapshotReader::count).
  template <class T>
  void count(const T& n, std::size_t, std::size_t = 1) { u64(n); }
  // Count, then each element through elem(io, element).
  template <class Vec, class Elem>
  void seq(const Vec& v, Elem&& elem) {
    u64(v.size());
    for (const auto& e : v) elem(*this, e);
  }
  // A nested owner's save_state(w, args...).
  template <class Part, class... Args>
  void part(const Part& p, const Args&... args) {
    p.save_state(*this, args...);
  }

  // Seals the buffer (appends the checksum) and writes it atomically.
  // Returns false on I/O failure.
  bool write_file(const std::string& path);

  // Sealed bytes without touching disk (tests).
  std::string seal() const;

 private:
  // Two's-complement widening: the low bytes put() keeps are the value's
  // bytes at any narrower width, signed or not.
  template <class T> static std::uint64_t wide(const T& v) {
    return static_cast<std::uint64_t>(v);
  }
  void put(std::uint64_t v, int width);  // the low `width` bytes of v

  std::string buf_;
  std::size_t section_len_at_ = 0;  // offset of the open section's length
  bool in_section_ = false;
};

// Counts the bytes a field list writes, without writing them. seq's
// restore bound runs an element's field list over a value-initialized
// element (nested sequences empty) for the element's minimum wire size.
class WireSize {
 public:
  static constexpr bool kSaving = true;

  template <class T> void u8(const T&) { bytes += 1; }
  template <class T> void u32(const T&) { bytes += 4; }
  template <class T> void u64(const T&) { bytes += 8; }
  template <class T> void i64(const T&) { bytes += 8; }
  void f64(double) { bytes += 8; }
  void rng_state(const std::array<std::uint64_t, 4>&) { bytes += 32; }
  template <class Vec, class Elem>
  void seq(const Vec& v, Elem&& elem) {
    bytes += 8;
    for (const auto& e : v) elem(*this, e);
  }

  std::size_t bytes = 0;
};

template <class T, class Elem>
std::size_t min_wire_bytes(Elem&& elem) {
  WireSize size;
  const T probe{};
  elem(size, probe);
  return size.bytes;
}

class SnapshotReader {
 public:
  static constexpr bool kSaving = false;

  // Parses and validates (magic, version, checksum). Throws util Error on
  // corruption; use load_file to distinguish "missing" from "corrupt".
  explicit SnapshotReader(std::string bytes);

  // False if the file does not exist. Throws on a corrupt/invalid file.
  static bool load_file(const std::string& path, std::string* bytes_out);

  std::uint64_t config_hash() const noexcept { return config_hash_; }

  // The next section's tag must equal `tag`.
  void expect_section(std::uint32_t tag);
  void end_section();  // CHECKs the section was fully consumed
  template <class Body>
  void section(std::uint32_t tag, Body&& body) {
    expect_section(tag);
    body();
    end_section();
  }

  // Field calls: read the wire width named, narrow into the member.
  template <class T> void u8(T& v) { v = static_cast<T>(take(1)); }
  template <class T> void u32(T& v) { v = static_cast<T>(take(4)); }
  template <class T> void u64(T& v) { v = static_cast<T>(take(8)); }
  template <class T> void i64(T& v) {
    v = static_cast<T>(static_cast<std::int64_t>(take(8)));
  }
  void f64(double& v);
  void rng_state(std::array<std::uint64_t, 4>& s);
  // Throws Error(msg), naming the section, unless the stored W equals n.
  template <class W = std::uint64_t, class T>
  void expect(const T& n, const char* msg) {
    if (take(sizeof(W)) != static_cast<W>(n)) fail(msg);
  }
  // A count of elements that each take at least min_bytes on the wire,
  // `per` elements packed to such a unit (bit vectors: 8 bytes per 64).
  // Refused unless ceil(n / per) * min_bytes fits in the section's
  // remaining bytes.
  template <class T>
  void count(T& n, std::size_t min_bytes, std::size_t per = 1) {
    n = static_cast<T>(take_count(min_bytes, per));
  }
  // Bounded count, then the container resized and each element read
  // through elem(io, element).
  template <class Vec, class Elem>
  void seq(Vec& v, Elem&& elem) {
    std::uint64_t n = 0;
    count(n, min_wire_bytes<typename Vec::value_type>(elem));
    v.clear();
    v.resize(n);
    for (auto& e : v) elem(*this, e);
  }
  // A nested owner's load_state(r, args...).
  template <class Part, class... Args>
  void part(Part& p, const Args&... args) { p.load_state(*this, args...); }

  // Throws util Error: "snapshot section 'TAG': <what>".
  [[noreturn]] void fail(const std::string& what) const;

  bool at_end() const noexcept;  // all sections consumed

 private:
  std::uint64_t take(int width);
  std::uint64_t take_count(std::size_t min_bytes, std::size_t per);

  std::string bytes_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::uint32_t section_tag_ = 0;
  bool in_section_ = false;
  std::uint64_t config_hash_ = 0;
  std::size_t payload_end_ = 0;  // start of the trailing checksum
};

// Test/diagnostic helper: find section `tag` in the snapshot at `path`,
// overwrite its `field_index`-th 8-byte word with `value`, and re-seal the
// checksum. This is how the auditor's negative tests corrupt a snapshot
// without tripping the (orthogonal) integrity check.
void snapshot_patch_u64(const std::string& path, std::uint32_t tag,
                        std::size_t field_index, std::uint64_t value);

}  // namespace spineless::sim
