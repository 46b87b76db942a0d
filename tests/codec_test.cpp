// Tests for the gradient-compression wire codecs (net/codec.h): spec
// parsing, round-trips, the int8 saturation rails, top-k selection and
// index canonicalization, error-feedback residuals, degenerate tensors
// (empty, denormal, tiny), non-finite inputs, the Byzantine-garbage
// ingress gate, and a bitwise oracle check of the encode kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/trainer.h"
#include "net/codec.h"
#include "tensor/rng.h"

namespace gn = garfield::net;
namespace gt = garfield::tensor;

namespace {

gn::Codec make(const std::string& spec) {
  return gn::Codec(gn::CodecSpec::parse(spec));
}

gn::Payload random_payload(std::size_t d, std::uint64_t seed) {
  gt::Rng rng(seed);
  gn::Payload out(d);
  for (float& x : out) x = rng.normal(0.0F, 1.0F);
  return out;
}

/// Bitwise equality: the codec frames open with NaN magic words, so
/// float == would call equal frames different.
bool same_bits(const gn::Payload& a, const gn::Payload& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The straightforward encoder the kernels in net/codec.cpp must match bit
/// for bit on finite input: topk by nth_element over every index with an
/// |x| comparator then a sort, int8 by std::lround per coordinate.
gn::Payload reference_encode(const gn::CodecSpec& spec,
                             const gn::Payload& dense,
                             gn::Payload* residual) {
  const std::size_t d = dense.size();
  gn::Payload compensated = dense;
  if (residual != nullptr) {
    if (residual->size() != d) residual->assign(d, 0.0F);
    for (std::size_t i = 0; i < d; ++i) {
      compensated[i] = dense[i] + (*residual)[i];
    }
  }
  gn::Payload out;
  if (spec.kind == gn::CodecKind::kInt8) {
    float max_abs = 0.0F;
    for (const float x : compensated) {
      if (std::isfinite(x)) max_abs = std::max(max_abs, std::abs(x));
    }
    const float scale = max_abs / 127.0F;
    const auto quantize = [scale](float x) -> std::int8_t {
      if (scale <= 0.0F || !std::isfinite(x)) return 0;
      const long q = std::lround(double(x) / double(scale));
      return std::int8_t(std::clamp<long>(q, -127, 127));
    };
    out = {std::bit_cast<float>(0x7fc06938U), float(d), scale};
    for (std::size_t i = 0; i < d; i += 4) {
      std::int8_t packed[4] = {0, 0, 0, 0};
      for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
        packed[j] = quantize(compensated[i + j]);
        if (residual != nullptr) {
          (*residual)[i + j] = compensated[i + j] - float(packed[j]) * scale;
        }
      }
      float slot;
      std::memcpy(&slot, packed, sizeof(slot));
      out.push_back(slot);
    }
    return out;
  }
  const std::size_t kc = spec.topk_count(d);
  std::vector<std::uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0U);
  const auto heavier = [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::abs(compensated[a]);
    const float fb = std::abs(compensated[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  };
  if (kc < d) {
    std::nth_element(order.begin(), order.begin() + std::ptrdiff_t(kc),
                     order.end(), heavier);
    order.resize(kc);
  }
  std::sort(order.begin(), order.end());
  out = {std::bit_cast<float>(0x7fc0674bU), float(d), float(kc)};
  for (const std::uint32_t idx : order) out.push_back(float(idx));
  for (const std::uint32_t idx : order) out.push_back(compensated[idx]);
  if (residual != nullptr) {
    *residual = std::move(compensated);
    for (const std::uint32_t idx : order) (*residual)[idx] = 0.0F;
  }
  return out;
}

/// Values on the int8 grid of scale 2^-7 with the rails at ±127 * 2^-7, so
/// the quotient x / scale is exact: every kind of coordinate lands exactly
/// on a half step (m + 0.5), on a rail, or on a magnitude tie, and both
/// signed zeros appear.
gn::Payload grid_payload(std::size_t d, std::uint64_t seed) {
  gt::Rng rng(seed);
  constexpr float kStep = 1.0F / 128.0F;
  gn::Payload out(d);
  for (std::size_t i = 0; i < d; ++i) {
    const float sign = rng.bernoulli(0.5) ? -1.0F : 1.0F;
    switch (rng.index(5)) {
      case 0:  // exact half step, including ±0.5 and ±126.5
        out[i] = sign * (float(rng.index(127)) + 0.5F) * kStep;
        break;
      case 1:  // a rail
        out[i] = sign * 127.0F * kStep;
        break;
      case 2:  // one of a few magnitudes, so topk's boundary is a tie
        out[i] = sign * float(1 + rng.index(3)) * kStep;
        break;
      case 3:  // +0 or -0
        out[i] = sign * 0.0F;
        break;
      default:  // anywhere between the rails
        out[i] = rng.uniform(-127.0F, 127.0F) * kStep;
    }
  }
  // Pin the scale: max |x| is the rail, so scale = 2^-7 exactly.
  if (d > 0) out[0] = 127.0F * kStep;
  return out;
}

double rms(const gn::Payload& a, const gn::Payload& b) {
  EXPECT_EQ(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += double(a[i] - b[i]) * double(a[i] - b[i]);
  }
  return a.empty() ? 0.0 : std::sqrt(acc / double(a.size()));
}

}  // namespace

// ------------------------------------------------------------------ parse

TEST(CodecSpec, ParsesTheGrammar) {
  EXPECT_EQ(gn::CodecSpec::parse("none").kind, gn::CodecKind::kNone);
  EXPECT_TRUE(gn::CodecSpec::parse("none").identity());
  EXPECT_EQ(gn::CodecSpec::parse("int8").kind, gn::CodecKind::kInt8);
  const gn::CodecSpec topk = gn::CodecSpec::parse("topk:k=0.05");
  EXPECT_EQ(topk.kind, gn::CodecKind::kTopK);
  EXPECT_DOUBLE_EQ(topk.k, 0.05);
  // Default k when unspecified.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("topk").k, 0.01);
}

TEST(CodecSpec, RejectsNonsense) {
  EXPECT_THROW((void)gn::CodecSpec::parse("gzip"), std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=0"), std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("int8:k=0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:frac=0.1"),
               std::invalid_argument);
}

TEST(CodecSpec, TopkCountClampsToAtLeastOne) {
  const gn::CodecSpec spec = gn::CodecSpec::parse("topk:k=0.01");
  EXPECT_EQ(spec.topk_count(0), 0U);
  EXPECT_EQ(spec.topk_count(10), 1U);  // 0.1 rounds to 0, clamped up
  EXPECT_EQ(spec.topk_count(1000), 10U);
  EXPECT_EQ(gn::CodecSpec::parse("topk:k=1").topk_count(7), 7U);
}

TEST(CodecSpec, WireRatioMatchesLayouts) {
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("none").wire_ratio(1000), 1.0);
  // topk:k=0.01 at d=1000: (3 + 2*10) / 1000.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("topk:k=0.01").wire_ratio(1000),
                   23.0 / 1000.0);
  // int8 at d=1000: (3 + 250) / 1000 — just over a quarter.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("int8").wire_ratio(1000),
                   253.0 / 1000.0);
}

// ------------------------------------------------------------ round trips

TEST(Codec, IdentityIsExact) {
  const gn::Codec codec = make("none");
  const gn::Payload dense = random_payload(97, 1);
  const gn::Payload wire = codec.encode_gradient(dense);
  EXPECT_EQ(wire, dense);
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, dense);
}

TEST(Codec, Int8RoundTripIsClose) {
  const gn::Codec codec = make("int8");
  const gn::Payload dense = random_payload(1001, 2);  // odd d: partial slot
  const gn::Payload wire = codec.encode_gradient(dense);
  EXPECT_EQ(wire.size(), 3U + (dense.size() + 3) / 4);
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  // Quantization error is bounded by scale/2 = max|x| / 254 per coordinate.
  float max_abs = 0.0F;
  for (const float x : dense) max_abs = std::max(max_abs, std::abs(x));
  const float bound = max_abs / 254.0F + 1e-6F;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR((*back)[i], dense[i], bound) << "coordinate " << i;
  }
}

TEST(Codec, Int8SaturatesAtTheRails) {
  const gn::Codec codec = make("int8");
  // One huge outlier sets the scale; everything else quantizes small.
  gn::Payload dense(8, 0.001F);
  dense[3] = 127000.0F;
  dense[5] = -127000.0F;
  const auto back = codec.decode(codec.encode_gradient(dense), dense.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_FLOAT_EQ((*back)[3], 127000.0F);   // exactly ±127 * scale
  EXPECT_FLOAT_EQ((*back)[5], -127000.0F);
  EXPECT_FLOAT_EQ((*back)[0], 0.0F);        // below half a step: rounds away
}

TEST(Codec, TopkKeepsTheHeaviestCoordinates) {
  const gn::Codec codec = make("topk:k=0.25");  // d=8 -> keep 2
  gn::Payload dense{0.1F, -5.0F, 0.2F, 0.0F, 3.0F, -0.3F, 0.05F, 0.2F};
  const gn::Payload wire = codec.encode_gradient(dense);
  ASSERT_EQ(wire.size(), 3U + 2U * 2U);
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  // Canonical form: strictly ascending indices, then their values.
  EXPECT_FLOAT_EQ(wire[3], 1.0F);
  EXPECT_FLOAT_EQ(wire[4], 4.0F);
  EXPECT_FLOAT_EQ(wire[5], -5.0F);
  EXPECT_FLOAT_EQ(wire[6], 3.0F);
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  const gn::Payload expect{0.0F, -5.0F, 0.0F, 0.0F, 3.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_EQ(*back, expect);
}

TEST(Codec, TopkTieBreaksOnLowerIndex) {
  const gn::Codec codec = make("topk:k=0.5");  // d=4 -> keep 2
  const gn::Payload dense{1.0F, -1.0F, 1.0F, 1.0F};  // all tied in |.|
  const gn::Payload wire = codec.encode_gradient(dense);
  ASSERT_EQ(wire.size(), 3U + 2U * 2U);
  EXPECT_FLOAT_EQ(wire[3], 0.0F);
  EXPECT_FLOAT_EQ(wire[4], 1.0F);
}

TEST(Codec, EmptyTensorRoundTrips) {
  for (const char* spec : {"none", "int8", "topk:k=0.5"}) {
    const gn::Codec codec = make(spec);
    const gn::Payload dense;
    const gn::Payload wire = codec.encode_gradient(dense);
    const auto back = codec.decode(wire, 0);
    ASSERT_TRUE(back.has_value()) << spec;
    EXPECT_TRUE(back->empty()) << spec;
  }
}

TEST(Codec, DenormalAndZeroTensorsSurvive) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const char* spec : {"int8", "topk:k=0.5"}) {
    const gn::Codec codec = make(spec);
    gn::Payload dense(6, 0.0F);
    dense[2] = denorm;
    dense[4] = -denorm;
    const auto back =
        codec.decode(codec.encode_gradient(dense), dense.size());
    ASSERT_TRUE(back.has_value()) << spec;
    for (const float x : *back) EXPECT_TRUE(std::isfinite(x)) << spec;
    // All-zero input must encode/decode to all zeros (scale = 0 path).
    const gn::Payload zeros(6, 0.0F);
    const auto zback =
        codec.decode(codec.encode_gradient(zeros), zeros.size());
    ASSERT_TRUE(zback.has_value()) << spec;
    EXPECT_EQ(*zback, zeros) << spec;
  }
}

TEST(Codec, StateEncodingDegradesTopkToInt8) {
  const gn::Codec topk = make("topk:k=0.01");
  const gn::Payload model = random_payload(512, 3);
  const gn::Payload wire = topk.encode_state(model);
  // int8 layout, not topk: a model missing 99% of coordinates is no model.
  EXPECT_EQ(wire.size(), 3U + (model.size() + 3) / 4);
  const auto back = topk.decode(wire, model.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_LT(rms(*back, model), 0.02);
  // And the identity codec's state path stays exact.
  EXPECT_EQ(make("none").encode_state(model), model);
}

// --------------------------------------------------------- error feedback

TEST(Codec, ErrorFeedbackCarriesDroppedMass) {
  const gn::Codec codec = make("topk:k=0.25");  // d=4 -> keep 1
  gn::Payload residual;
  const gn::Payload g{1.0F, 0.6F, 0.5F, 0.4F};
  // Round 1: keeps index 0, drops the rest into the residual.
  const gn::Payload w1 = codec.encode_gradient(g, &residual);
  ASSERT_EQ(residual.size(), g.size());
  EXPECT_FLOAT_EQ(residual[0], 0.0F);
  EXPECT_FLOAT_EQ(residual[1], 0.6F);
  // Round 2 with a zero gradient: the carried residual alone must win the
  // selection — compressed communication converges to the true sum.
  const gn::Payload zero(4, 0.0F);
  const gn::Payload w2 = codec.encode_gradient(zero, &residual);
  const auto back = codec.decode(w2, 4);
  ASSERT_TRUE(back.has_value());
  EXPECT_FLOAT_EQ((*back)[1], 0.6F);  // last round's dropped coordinate
  EXPECT_FLOAT_EQ(residual[1], 0.0F);
  EXPECT_FLOAT_EQ(residual[2], 0.5F);  // still waiting its turn
}

TEST(Codec, Int8ErrorFeedbackShrinksQuantizationError) {
  const gn::Codec codec = make("int8");
  const gn::Payload g = random_payload(256, 4);
  // Sum of decoded transmissions with feedback approaches n*g better than
  // n independent quantizations: the residual re-injects rounding error.
  gn::Payload residual;
  gn::Payload sum_fb(g.size(), 0.0F);
  gn::Payload sum_plain(g.size(), 0.0F);
  constexpr int kRounds = 16;
  for (int r = 0; r < kRounds; ++r) {
    const auto fb = codec.decode(codec.encode_gradient(g, &residual), 256);
    const auto plain = codec.decode(codec.encode_gradient(g), 256);
    ASSERT_TRUE(fb && plain);
    for (std::size_t i = 0; i < g.size(); ++i) {
      sum_fb[i] += (*fb)[i];
      sum_plain[i] += (*plain)[i];
    }
  }
  gn::Payload target = g;
  for (float& x : target) x *= float(kRounds);
  EXPECT_LE(rms(sum_fb, target), rms(sum_plain, target));
  EXPECT_LT(rms(sum_fb, target) / double(kRounds), 1e-3);
}

// ------------------------------------------------------------ ingress gate

TEST(Codec, DecodeRejectsStructuralGarbage) {
  const gn::Codec codec = make("topk:k=0.5");
  const gn::Payload dense = random_payload(16, 5);
  const gn::Payload wire = codec.encode_gradient(dense);

  // Wrong dimension claim.
  EXPECT_FALSE(codec.decode(wire, 17).has_value());
  // Truncated frame.
  gn::Payload cut(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(codec.decode(cut, 16).has_value());
  // Out-of-range index.
  gn::Payload bad_idx = wire;
  bad_idx[3] = 99.0F;
  EXPECT_FALSE(codec.decode(bad_idx, 16).has_value());
  // Non-integral index.
  gn::Payload frac_idx = wire;
  frac_idx[3] = 0.5F;
  EXPECT_FALSE(codec.decode(frac_idx, 16).has_value());
  // Duplicate / non-ascending indices are garbage, not an alt encoding.
  gn::Payload dup = wire;
  dup[4] = dup[3];
  EXPECT_FALSE(codec.decode(dup, 16).has_value());
  // k > d.
  gn::Payload too_many = wire;
  too_many[2] = 17.0F;
  EXPECT_FALSE(codec.decode(too_many, 16).has_value());

  const gn::Codec int8 = make("int8");
  const gn::Payload iwire = int8.encode_gradient(dense);
  // Non-finite scale.
  gn::Payload nan_scale = iwire;
  nan_scale[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(int8.decode(nan_scale, 16).has_value());
  gn::Payload neg_scale = iwire;
  neg_scale[2] = -1.0F;
  EXPECT_FALSE(int8.decode(neg_scale, 16).has_value());
  // Wrong slot count for the claimed dimension.
  gn::Payload short_frame(iwire.begin(), iwire.end() - 1);
  EXPECT_FALSE(int8.decode(short_frame, 16).has_value());

  // A plain dense payload of the wrong size is garbage too.
  EXPECT_FALSE(codec.decode(random_payload(8, 6), 16).has_value());
  // ... but of the right size passes through unchanged.
  const gn::Payload plain = random_payload(16, 7);
  const auto through = codec.decode(plain, 16);
  ASSERT_TRUE(through.has_value());
  EXPECT_EQ(*through, plain);
}

TEST(Codec, DecodeDispatchesOnMagicNotOnSpec) {
  // A topk-configured receiver still decodes an int8 state frame (model
  // snapshots degrade to int8 regardless of the gradient codec).
  const gn::Codec topk = make("topk:k=0.01");
  const gn::Payload model = random_payload(128, 8);
  const gn::Payload state = topk.encode_state(model);
  const auto back = topk.decode(state, model.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_LT(rms(*back, model), 0.02);
}

TEST(Codec, MagicWordsAreQuietNans) {
  // The frame marker must be a bit pattern the all_finite ingress gate
  // would reject in a plain gradient — i.e. NaN space.
  const gn::Codec codec = make("int8");
  const gn::Payload wire = codec.encode_gradient(random_payload(8, 9));
  EXPECT_TRUE(std::isnan(wire[0]));
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  EXPECT_FALSE(gn::Codec::looks_encoded(random_payload(8, 10)));
  EXPECT_FALSE(gn::Codec::looks_encoded({}));
}

// ------------------------------------------------------- non-finite input

TEST(Codec, TopkOrdersNonFiniteInputsDeterministically) {
  // A nan_poison Byzantine worker encodes its crafted gradient with the
  // configured codec, so topk must select from NaN and ±inf coordinates
  // with a total order: NaN above ±inf above every finite magnitude.
  const gn::Codec codec = make("topk:k=0.1");  // d=64 -> keep 6
  gn::Payload dense = random_payload(64, 20);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  dense[3] = nan;
  dense[10] = -nan;
  dense[20] = inf;
  dense[41] = -inf;
  dense[50] = std::bit_cast<float>(0x7fa00001U);  // signalling-NaN bits
  const gn::Payload first = codec.encode_gradient(dense);
  const gn::Payload second = codec.encode_gradient(dense);
  EXPECT_TRUE(same_bits(first, second));
  ASSERT_EQ(first.size(), 3U + 2U * 6U);
  // Every NaN and inf ranks above every finite coordinate.
  std::vector<float> indices(first.begin() + 3, first.begin() + 9);
  for (const float idx : {3.0F, 10.0F, 20.0F, 41.0F, 50.0F}) {
    EXPECT_NE(std::find(indices.begin(), indices.end(), idx), indices.end())
        << "index " << idx << " not selected";
  }
  EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
  EXPECT_EQ(std::adjacent_find(indices.begin(), indices.end()),
            indices.end());
  // With error feedback too: the same frames, the same residuals.
  gn::Payload r1;
  gn::Payload r2;
  EXPECT_TRUE(same_bits(codec.encode_gradient(dense, &r1),
                        codec.encode_gradient(dense, &r2)));
  EXPECT_TRUE(same_bits(r1, r2));
  // The frame is structurally sound, so decode() accepts it; the decoded
  // gradient is not finite, which is what the server's ingress gate
  // (Server::validate, tensor::all_finite) rejects.
  const auto back = codec.decode(first, dense.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(gt::all_finite(*back));
}

TEST(Codec, NanPoisonUnderTopkIsRejectedAtIngress) {
  namespace gc = garfield::core;
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.model = "tiny_mlp";
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.batch_size = 16;
  cfg.nw = 4;
  cfg.fw = 1;
  cfg.iterations = 20;
  cfg.eval_every = 0;
  cfg.codec = "topk:k=0.1";
  cfg.worker_attack = "nan_poison";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.rejected_payloads, 0U);
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
}

// ----------------------------------------------------------------- oracle

TEST(Codec, EncodersMatchTheReferenceBitwise) {
  // The encode kernels must reproduce the straightforward encoder exactly:
  // frames and error-feedback residuals, round after round, over random
  // data and over grid data full of ties, signed zeros, exact half steps
  // and rail values.
  for (const char* spec_text :
       {"int8", "topk:k=0.01", "topk:k=0.3", "topk:k=1"}) {
    const gn::CodecSpec spec = gn::CodecSpec::parse(spec_text);
    const gn::Codec codec(spec);
    for (const std::size_t d : {1U, 7U, 8U, 874U, 17226U}) {
      for (const bool grid : {false, true}) {
        gn::Payload residual;
        gn::Payload reference_residual;
        for (std::uint64_t round = 0; round < 20; ++round) {
          const std::uint64_t seed = 1000 * d + round;
          const gn::Payload dense =
              grid ? grid_payload(d, seed) : random_payload(d, seed);
          const std::string where = std::string(spec_text) +
                                    " d=" + std::to_string(d) +
                                    (grid ? " grid" : " random") +
                                    " round " + std::to_string(round);
          ASSERT_TRUE(same_bits(codec.encode_gradient(dense),
                                reference_encode(spec, dense, nullptr)))
              << where << " (no feedback)";
          ASSERT_TRUE(
              same_bits(codec.encode_gradient(dense, &residual),
                        reference_encode(spec, dense, &reference_residual)))
              << where;
          ASSERT_TRUE(same_bits(residual, reference_residual)) << where;
        }
      }
    }
  }
}

TEST(Codec, Int8RoundsHalfStepsAwayFromZero) {
  // The grid pins scale = 2^-7, so each coordinate's quotient is exact.
  const gn::Codec codec = make("int8");
  const float step = 1.0F / 128.0F;
  const gn::Payload dense{127.0F * step, 0.5F * step,   -0.5F * step,
                          2.5F * step,   -2.5F * step,  126.5F * step,
                          -127.0F * step, 0.0F};
  const auto back = codec.decode(codec.encode_gradient(dense), dense.size());
  ASSERT_TRUE(back.has_value());
  const gn::Payload expect{127.0F * step, 1.0F * step,    -1.0F * step,
                           3.0F * step,   -3.0F * step,   127.0F * step,
                           -127.0F * step, 0.0F};
  EXPECT_EQ(*back, expect);
}
