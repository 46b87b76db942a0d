// Layer microbench — the byte kernels on every TCP payload's path.
//
// Prints the median wall time of one call, in µs, after a warm-up, on one
// thread, for the wire layer (crc32 over a dense message body,
// wire::encode / wire::decode, frame() plus FrameDecoder reassembly) and
// the codec layer (topk:k=0.01 gradient encode with error feedback, int8
// state encode, and both decodes). The dimensions are small_mlp's 17226
// (the msmw-tcp model) and mnist_cnn's 18346; payloads are N(0, 1).
// GARFIELD_BENCH_SMOKE shrinks the call counts to a seconds-scale check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_support.h"
#include "net/codec.h"
#include "net/wire.h"
#include "tensor/rng.h"

namespace {

namespace gn = garfield::net;

/// Median µs of `calls` timed calls of fn after `warmup` untimed ones.
template <typename Fn>
double median_us(std::size_t warmup, std::size_t calls, Fn&& fn) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> us(calls);
  for (double& t : us) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    t = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
  std::nth_element(us.begin(), us.begin() + long(calls / 2), us.end());
  return us[calls / 2];
}

/// Keeps a result alive so the timed call is not optimized away.
volatile std::size_t g_sink = 0;

}  // namespace

int main() {
  const bool smoke = garfield::bench::smoke_mode();
  const std::size_t warmup = smoke ? 1 : 20;
  const std::size_t calls = smoke ? 3 : 301;

  std::printf("Layer microbench: median us per call of %zu after %zu "
              "warm-up calls, one thread\n", calls, warmup);
  std::printf("%-7s %-24s %10s\n", "d", "kernel", "us/call");
  for (const std::size_t d : {std::size_t(17226), std::size_t(18346)}) {
    garfield::tensor::Rng rng(d);
    gn::Payload dense(d);
    for (float& x : dense) x = rng.normal(0.0F, 1.0F);
    const auto row = [&](const char* kernel, double us) {
      std::printf("%-7zu %-24s %10.1f\n", d, kernel, us);
    };

    // Wire layer: what one dense TCP message costs on each side.
    const std::vector<std::uint8_t> blob = gn::encode(7, dense);
    const std::span<const std::uint8_t> body(blob.data() + gn::wire_size(0),
                                             4 * d);
    row("crc32 (4d bytes)", median_us(warmup, calls, [&] {
          g_sink = gn::crc32(body);
        }));
    row("wire::encode", median_us(warmup, calls, [&] {
          g_sink = gn::encode(7, dense).size();
        }));
    row("wire::decode", median_us(warmup, calls, [&] {
          g_sink = gn::decode(blob).payload.size();
        }));
    row("frame + FrameDecoder", median_us(warmup, calls, [&] {
          gn::FrameDecoder decoder;
          decoder.feed(gn::frame(blob));
          g_sink = decoder.next()->size();
        }));

    // Codec layer: a worker's topk gradient reply and a server's int8
    // model snapshot.
    const gn::Codec topk(gn::CodecSpec::parse("topk:k=0.01"));
    gn::Payload residual;
    row("topk encode (feedback)", median_us(warmup, calls, [&] {
          g_sink = topk.encode_gradient(dense, &residual).size();
        }));
    const gn::Payload topk_wire = topk.encode_gradient(dense);
    row("topk decode", median_us(warmup, calls, [&] {
          g_sink = topk.decode(topk_wire, d)->size();
        }));
    row("int8 state encode", median_us(warmup, calls, [&] {
          g_sink = topk.encode_state(dense).size();
        }));
    const gn::Payload int8_wire = topk.encode_state(dense);
    row("int8 decode", median_us(warmup, calls, [&] {
          g_sink = topk.decode(int8_wire, d)->size();
        }));
  }
  return 0;
}
