#include "net/wire.h"

#include <array>
#include <cstring>

namespace garfield::net {

namespace {

constexpr std::uint32_t kMagic = 0x44465247;  // "GRFD" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kCrcOffset = 24;
constexpr std::size_t kHeaderSize = 28;

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// t[0] is the classic bytewise table, and t[s][i] is the CRC of byte i
/// followed by s zero bytes, so eight table lookups advance eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFU];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

struct Header {
  std::uint64_t iteration = 0;
  std::uint64_t d = 0;
  std::uint32_t crc = 0;
};

/// The header fields, after the size, magic and version checks that
/// encoded_size() and decode() share.
Header read_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    throw WireError("wire: truncated header (" +
                    std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader in{bytes, "wire: header"};
  if (in.u32() != kMagic) throw WireError("wire: bad magic");
  const std::uint32_t version = in.u32();
  if (version != kVersion) {
    throw WireError("wire: unsupported version " + std::to_string(version));
  }
  Header h;
  h.iteration = in.u64();
  h.d = in.u64();
  h.crc = in.u32();
  return h;
}

/// The u32 at `at` of a buffer already known to hold it.
std::uint32_t u32_at(std::span<const std::uint8_t> bytes, std::size_t at) {
  return ByteReader{bytes, "wire: stream prefix", at}.u32();
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

std::size_t wire_size(std::size_t d) { return kHeaderSize + 4 * d; }

std::vector<std::uint8_t> encode(std::uint64_t iteration,
                                 std::span<const float> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(payload.size()));
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, iteration);
  put_u64(out, std::uint64_t(payload.size()));
  put_u32(out, 0);  // CRC slot, backfilled once the payload is in place
  const auto* body = reinterpret_cast<const std::uint8_t*>(payload.data());
  out.insert(out.end(), body, body + 4 * payload.size());
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(out).subspan(kHeaderSize));
  for (int i = 0; i < 4; ++i) {
    out[kCrcOffset + i] = std::uint8_t(crc >> (8 * i));
  }
  return out;
}

std::size_t encoded_size(std::span<const std::uint8_t> bytes) {
  const std::uint64_t d = read_header(bytes).d;
  // Compare in element space: computing kHeaderSize + 4*d with an untrusted
  // 64-bit d could wrap and defeat the truncation check.
  if (d > (bytes.size() - kHeaderSize) / 4) {
    throw WireError("wire: truncated message (header claims " +
                    std::to_string(d) + " elements, blob has " +
                    std::to_string((bytes.size() - kHeaderSize) / 4) + ")");
  }
  return kHeaderSize + 4 * std::size_t(d);
}

WireMessage decode(std::span<const std::uint8_t> bytes) {
  const Header header = read_header(bytes);
  const std::uint64_t d = header.d;
  WireMessage msg;
  msg.iteration = header.iteration;
  // Element-space comparison: kHeaderSize + 4*d could wrap for a hostile d.
  if ((bytes.size() - kHeaderSize) % 4 != 0 ||
      d != (bytes.size() - kHeaderSize) / 4) {
    throw WireError("wire: size mismatch (header claims " +
                    std::to_string(d) + " elements, blob has " +
                    std::to_string((bytes.size() - kHeaderSize) / 4) + ")");
  }
  const std::span<const std::uint8_t> body = bytes.subspan(kHeaderSize);
  if (crc32(body) != header.crc) {
    throw WireError("wire: checksum mismatch — payload corrupted");
  }
  msg.payload.resize(d);
  if (d > 0) std::memcpy(msg.payload.data(), body.data(), body.size());
  return msg;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> body,
                                std::size_t max_frame) {
  if (body.size() > max_frame || body.size() > 0xFFFFFFFFU) {
    throw WireError("wire: frame body of " + std::to_string(body.size()) +
                    " bytes exceeds the frame limit");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFramePrefixBytes + body.size());
  put_u32(out, std::uint32_t(body.size()));
  put_u32(out, crc32(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the length prefix as soon as it is complete: a hostile or
  // corrupted prefix fails here, before next() would size a frame by it.
  if (buffer_.size() - consumed_ >= 4) {
    const std::uint32_t len = u32_at(buffer_, consumed_);
    if (len > max_frame_) {
      throw WireError("wire: stream frame of " + std::to_string(len) +
                      " bytes exceeds the frame limit");
    }
  }
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  for (;;) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kFramePrefixBytes) break;
    const std::uint32_t len = u32_at(buffer_, consumed_);
    if (len > max_frame_) {
      throw WireError("wire: stream frame of " + std::to_string(len) +
                      " bytes exceeds the frame limit");
    }
    if (available < kFramePrefixBytes + std::size_t(len)) break;
    const std::uint32_t expected_crc = u32_at(buffer_, consumed_ + 4);
    const std::span<const std::uint8_t> body_view(
        buffer_.data() + consumed_ + kFramePrefixBytes, std::size_t(len));
    if (crc32(body_view) != expected_crc) {
      // A flipped bit on the wire loses this message, nothing more: skip
      // the frame, keep the stream, and let the sender's retry layer see
      // the silence.
      consumed_ += kFramePrefixBytes + std::size_t(len);
      ++corrupt_frames_;
      continue;
    }
    std::vector<std::uint8_t> body(body_view.begin(), body_view.end());
    consumed_ += kFramePrefixBytes + std::size_t(len);
    return body;
  }
  // Compact once the prefix has nothing complete left behind it, so a
  // long-lived connection doesn't accrete every frame it ever saw.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + std::ptrdiff_t(consumed_));
    consumed_ = 0;
  }
  return std::nullopt;
}

}  // namespace garfield::net
