#include "net/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "util/spec.h"

namespace garfield::net {

namespace {

// Quiet-NaN-space magic words: exponent all ones + quiet bit + a payload
// no arithmetic produces. A dense gradient coordinate can be any bit
// pattern in principle, but a *leading* coordinate equal to one of these
// exact NaNs would already have been rejected by the all_finite ingress
// gates long before a codec sees it.
constexpr std::uint32_t kTopkMagic = 0x7fc0674bU;  // "gK"
constexpr std::uint32_t kInt8Magic = 0x7fc06938U;  // "i8"

float magic_float(std::uint32_t word) { return std::bit_cast<float>(word); }

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// |x| as its bit pattern: ordered like |x| for every non-NaN x, with NaNs
/// above +inf.
std::uint32_t magnitude(float x) { return float_bits(x) & 0x7fffffffU; }

/// Exact small-integer check for header fields shipped as floats (d and k
/// stay exact below 2^24, far above any test or bench dimension).
bool integral_in_range(float f, double max, std::size_t& out) {
  if (!std::isfinite(f) || f < 0.0F || double(f) > max) return false;
  const double rounded = std::nearbyint(double(f));
  if (rounded != double(f)) return false;
  out = std::size_t(rounded);
  return true;
}

/// Deterministic int8 quantization step: std::lround(double(x) / scale)
/// clamped to the int8 rails, written without libm or a floating-point
/// branch so the encode loop vectorizes. A non-finite x is masked to +0
/// and quantizes to 0. The quotient is truncated; adding int(2 * frac)
/// adds ±1 exactly when |frac| >= 0.5 (both steps are exact in double),
/// which is lround's round-half-away rule. Precondition: scale > 0 and
/// |x| / scale < 2^31 — true for scale = max finite |x| / 127, where the
/// quotient stays below 191 even for a subnormal scale.
int quantize(float x, double scale) {
  std::uint32_t bits = float_bits(x);
  bits &= 0U - std::uint32_t((bits & 0x7f800000U) != 0x7f800000U);
  const double v = double(std::bit_cast<float>(bits)) / scale;
  const int whole = int(v);
  const int q = whole + int(2.0 * (v - double(whole)));
  return q < -127 ? -127 : (q > 127 ? 127 : q);
}

/// topk's selection order: the magnitude bits (sign cleared) in the high
/// word, then the complemented index, so a larger key is heavier and equal
/// magnitudes go to the lower index. Distinct coordinates never tie.
std::uint64_t topk_key(float x, std::size_t i) {
  return (std::uint64_t(magnitude(x)) << 32) |
         (0xffffffffU - std::uint32_t(i));
}

/// The indices of the kc heaviest coordinates of x[0, d) in topk_key
/// order, ascending, for kc <= d. A histogram of the top 12 magnitude bits
/// finds the bin where the kc-th heaviest lies; only the coordinates in
/// that bin or above it (about kc of them) are keyed and ordered.
std::vector<std::uint32_t> topk_select(const float* x, std::size_t d,
                                       std::size_t kc) {
  std::vector<std::uint32_t> chosen;
  if (kc == 0) return chosen;
  constexpr int kBinShift = 19;  // 31 magnitude bits -> 4096 bins
  std::array<std::uint32_t, std::size_t(1) << (31 - kBinShift)> hist{};
  for (std::size_t i = 0; i < d; ++i) ++hist[magnitude(x[i]) >> kBinShift];
  std::size_t above = 0;  // coordinates in bins heavier than `bin`
  std::size_t bin = hist.size() - 1;
  while (above + hist[bin] < kc) above += hist[bin--];
  // Every candidate's key, in index order.
  const std::uint32_t floor = std::uint32_t(bin) << kBinShift;
  std::vector<std::uint64_t> candidates;
  candidates.reserve(above + hist[bin]);
  for (std::size_t i = 0; i < d; ++i) {
    if (magnitude(x[i]) >= floor) candidates.push_back(topk_key(x[i], i));
  }
  std::vector<std::uint64_t> ranked = candidates;
  const auto kth = ranked.begin() + std::ptrdiff_t(kc - 1);
  std::nth_element(ranked.begin(), kth, ranked.end(), std::greater<>());
  chosen.reserve(kc);
  for (const std::uint64_t key : candidates) {
    if (key >= *kth) chosen.push_back(0xffffffffU - std::uint32_t(key));
  }
  return chosen;
}

}  // namespace

CodecSpec CodecSpec::parse(const std::string& spec) {
  const util::ParsedSpec parsed = util::parse_spec(spec, "codec spec");
  CodecSpec out;
  if (parsed.name == "none") {
    out.kind = CodecKind::kNone;
  } else if (parsed.name == "int8") {
    out.kind = CodecKind::kInt8;
  } else if (parsed.name == "topk") {
    out.kind = CodecKind::kTopK;
    out.k = parsed.options.get_double("k", out.k);
    if (!(out.k > 0.0 && out.k <= 1.0)) {
      throw std::invalid_argument(
          "codec spec: topk k must be in (0, 1], got " +
          std::to_string(out.k));
    }
  } else {
    throw std::invalid_argument("codec spec: unknown codec '" + parsed.name +
                                "' (expected none, int8 or topk:k=...)");
  }
  const auto stray = parsed.options.unconsumed();
  if (!stray.empty()) {
    throw std::invalid_argument("codec spec: '" + parsed.name +
                                "' has unknown option '" + stray.front() +
                                "'");
  }
  return out;
}

std::size_t CodecSpec::topk_count(std::size_t d) const {
  if (d == 0) return 0;
  const auto want = std::llround(k * double(d));
  return std::size_t(std::clamp<long long>(want, 1, (long long)(d)));
}

double CodecSpec::wire_ratio(std::size_t d) const {
  if (d == 0) return 1.0;
  switch (kind) {
    case CodecKind::kNone:
      return 1.0;
    case CodecKind::kTopK:
      return (3.0 + 2.0 * double(topk_count(d))) / double(d);
    case CodecKind::kInt8:
      return (3.0 + double((d + 3) / 4)) / double(d);
  }
  return 1.0;
}

Payload Codec::encode_gradient(const Payload& dense,
                               Payload* residual) const {
  if (spec_.kind == CodecKind::kNone) return dense;
  const std::size_t d = dense.size();
  // Error feedback: compress (gradient + carried residual), then remember
  // what the compression dropped for the next round. The sum is built in
  // the residual itself, which then keeps exactly what was not sent.
  const float* compensated = dense.data();
  if (residual != nullptr) {
    if (residual->size() != d) residual->assign(d, 0.0F);
    tensor::add(dense, *residual, *residual);
    compensated = residual->data();
  }

  if (spec_.kind == CodecKind::kInt8) {
    // Largest finite |x|, compared as magnitude bits: for finite values
    // their integer order is the order of |x|. Signed, because a signed
    // max reduction vectorizes on baseline x86-64 and an unsigned one does
    // not; the sign bit is clear.
    std::int32_t max_mag = 0;
    for (std::size_t i = 0; i < d; ++i) {
      const auto mag = std::int32_t(magnitude(compensated[i]));
      max_mag = std::max(max_mag, mag < 0x7f800000 ? mag : 0);
    }
    const float scale = std::bit_cast<float>(max_mag) / 127.0F;
    // Zero-filled slots: padding bytes of the last slot stay 0.
    Payload out(3 + (d + 3) / 4, 0.0F);
    out[0] = magic_float(kInt8Magic);
    out[1] = float(d);
    out[2] = scale;
    // The i-th int8 is byte i of the packed slots.
    auto* packed = reinterpret_cast<unsigned char*>(out.data() + 3);
    if (scale > 0.0F) {
      for (std::size_t i = 0; i < d; ++i) {
        packed[i] =
            static_cast<unsigned char>(quantize(compensated[i], scale));
      }
    }
    if (residual != nullptr) {
      float* r = residual->data();
      for (std::size_t i = 0; i < d; ++i) {
        r[i] -= float(static_cast<std::int8_t>(packed[i])) * scale;
      }
    }
    return out;
  }

  // topk: keep the kc heaviest coordinates in topk_key order (|x|
  // descending, ties to the lower index), so the selection — and therefore
  // the whole trajectory — is deterministic, and emit them by ascending
  // index.
  const std::size_t kc = spec_.topk_count(d);
  const std::vector<std::uint32_t> chosen = topk_select(compensated, d, kc);
  Payload out;
  out.reserve(3 + 2 * kc);
  out.push_back(magic_float(kTopkMagic));
  out.push_back(float(d));
  out.push_back(float(kc));
  for (const std::uint32_t idx : chosen) out.push_back(float(idx));
  for (const std::uint32_t idx : chosen) out.push_back(compensated[idx]);
  if (residual != nullptr) {
    for (const std::uint32_t idx : chosen) (*residual)[idx] = 0.0F;
  }
  return out;
}

Payload Codec::encode_state(const Payload& dense) const {
  if (spec_.kind == CodecKind::kNone) return dense;
  // A model snapshot missing most of its coordinates is not a model:
  // lossy codecs degrade to int8 for state-class payloads (header block).
  Codec int8{CodecSpec{CodecKind::kInt8, spec_.k}};
  return int8.encode_gradient(dense, nullptr);
}

std::optional<Payload> Codec::decode(const Payload& encoded,
                                     std::size_t dimension) const {
  if (encoded.size() >= 3) {
    const std::uint32_t magic = float_bits(encoded[0]);
    if (magic == kTopkMagic) {
      std::size_t d = 0;
      std::size_t kc = 0;
      if (!integral_in_range(encoded[1], double(1ULL << 24), d) ||
          !integral_in_range(encoded[2], double(1ULL << 24), kc) ||
          d != dimension || kc > d || encoded.size() != 3 + 2 * kc) {
        return std::nullopt;
      }
      Payload dense(d, 0.0F);
      std::size_t prev = 0;
      for (std::size_t j = 0; j < kc; ++j) {
        std::size_t idx = 0;
        if (!integral_in_range(encoded[3 + j], double(d) - 1.0, idx)) {
          return std::nullopt;
        }
        // Canonical form is strictly ascending — duplicates or shuffles
        // are Byzantine garbage, not an alternative encoding.
        if (j > 0 && idx <= prev) return std::nullopt;
        prev = idx;
        dense[idx] = encoded[3 + kc + j];
      }
      return dense;
    }
    if (magic == kInt8Magic) {
      std::size_t d = 0;
      const float scale = encoded[2];
      if (!integral_in_range(encoded[1], double(1ULL << 24), d) ||
          d != dimension || !std::isfinite(scale) || scale < 0.0F ||
          encoded.size() != 3 + (d + 3) / 4) {
        return std::nullopt;
      }
      Payload dense(d, 0.0F);
      for (std::size_t i = 0; i < d; i += 4) {
        std::int8_t packed[4];
        std::memcpy(packed, &encoded[3 + i / 4], sizeof(packed));
        for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
          dense[i + j] = float(packed[j]) * scale;
        }
      }
      return dense;
    }
  }
  // No codec magic: a plain dense payload passes through unchanged; any
  // other shape is garbage.
  if (encoded.size() == dimension) return encoded;
  return std::nullopt;
}

bool Codec::looks_encoded(const Payload& payload) {
  if (payload.size() < 3) return false;
  const std::uint32_t magic = float_bits(payload[0]);
  return magic == kTopkMagic || magic == kInt8Magic;
}

}  // namespace garfield::net
