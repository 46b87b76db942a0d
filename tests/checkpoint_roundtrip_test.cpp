// Checkpoint round-trip regression: a saved model must reload bit-exactly —
// parameters, optimizer velocity and iteration tag — and corruption or
// mixed-up blobs must be rejected, never silently trained on.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/checkpoint.h"
#include "net/wire.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace gc = garfield::core;
namespace gn = garfield::net;
namespace ts = garfield::testsupport;

using garfield::tensor::FlatVector;

namespace {

class CheckpointRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("garfield_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  /// True when some `<target>.tmp*` file is left in the test directory.
  [[nodiscard]] bool tmp_left_for(const std::string& target) const {
    const std::string prefix =
        std::filesystem::path(target).filename().string() + ".tmp";
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().starts_with(prefix)) return true;
    }
    return false;
  }

  [[nodiscard]] static FlatVector random_vector(std::size_t d,
                                                std::uint64_t seed) {
    garfield::tensor::Rng rng(seed);
    FlatVector v(d);
    for (float& x : v) x = rng.normal();
    return v;
  }

  std::filesystem::path dir_;
};

}  // namespace

TEST_F(CheckpointRoundTrip, ModelAndOptimizerStateSurviveExactly) {
  gc::Checkpoint original;
  original.iteration = 123456789ULL;
  original.parameters = random_vector(513, 1);  // odd size, not a power of 2
  original.velocity = random_vector(513, 2);

  gc::save_checkpoint(path("full.ckpt"), original);
  const gc::Checkpoint loaded = gc::load_checkpoint(path("full.ckpt"));

  EXPECT_EQ(loaded.iteration, original.iteration);
  ASSERT_EQ(loaded.parameters.size(), original.parameters.size());
  ASSERT_EQ(loaded.velocity.size(), original.velocity.size());
  // Bit-exact: compare the raw bytes, not float values (which would let a
  // lossy encoder sneak through rounding, and would misbehave on NaN).
  EXPECT_EQ(std::memcmp(loaded.parameters.data(), original.parameters.data(),
                        original.parameters.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(loaded.velocity.data(), original.velocity.data(),
                        original.velocity.size() * sizeof(float)),
            0);
}

TEST_F(CheckpointRoundTrip, EmptyVelocityRoundTripsAsEmpty) {
  gc::Checkpoint original;
  original.iteration = 7;
  original.parameters = random_vector(64, 3);

  gc::save_checkpoint(path("plain.ckpt"), original);
  const gc::Checkpoint loaded = gc::load_checkpoint(path("plain.ckpt"));

  EXPECT_EQ(loaded.iteration, 7u);
  EXPECT_TRUE(loaded.velocity.empty());
  EXPECT_LE(ts::max_abs_diff(loaded.parameters, original.parameters), 0.0);
}

TEST_F(CheckpointRoundTrip, LegacySingleBlobFilesStillLoad) {
  // Files written before the velocity field existed are exactly one wire
  // message; they must keep loading with an empty velocity.
  const FlatVector params = random_vector(32, 4);
  const std::vector<std::uint8_t> blob = gn::encode(42, params);
  {
    std::ofstream out(path("legacy.ckpt"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              std::streamsize(blob.size()));
  }
  const gc::Checkpoint loaded = gc::load_checkpoint(path("legacy.ckpt"));
  EXPECT_EQ(loaded.iteration, 42u);
  EXPECT_EQ(loaded.parameters, params);
  EXPECT_TRUE(loaded.velocity.empty());
}

TEST_F(CheckpointRoundTrip, MismatchedVelocityIterationIsRejected) {
  // A velocity blob from a different iteration than the parameters means
  // the file was stitched from two checkpoints — corrupt, not loadable.
  std::vector<std::uint8_t> blob = gn::encode(10, random_vector(16, 5));
  const std::vector<std::uint8_t> tail = gn::encode(11, random_vector(16, 6));
  blob.insert(blob.end(), tail.begin(), tail.end());
  {
    std::ofstream out(path("stitched.ckpt"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              std::streamsize(blob.size()));
  }
  EXPECT_THROW(gc::load_checkpoint(path("stitched.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, MismatchedVelocityDimensionIsRejected) {
  // A velocity of the wrong dimension would be silently zeroed by the
  // optimizer's first step; the loader must reject it up front.
  std::vector<std::uint8_t> blob = gn::encode(10, random_vector(16, 12));
  const std::vector<std::uint8_t> tail = gn::encode(10, random_vector(8, 13));
  blob.insert(blob.end(), tail.begin(), tail.end());
  {
    std::ofstream out(path("shortvel.ckpt"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              std::streamsize(blob.size()));
  }
  EXPECT_THROW(gc::load_checkpoint(path("shortvel.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, OverflowingElementCountIsRejected) {
  // A header whose element count makes kHeaderSize + 4*d wrap must fail as
  // WireError, not crash in payload.resize(). Craft a 28-byte file with
  // valid magic/version and d = 2^62.
  std::vector<std::uint8_t> blob = gn::encode(1, FlatVector{});
  ASSERT_EQ(blob.size(), gn::wire_size(0));
  const std::uint64_t huge = std::uint64_t{1} << 62;
  for (int i = 0; i < 8; ++i) {
    blob[16 + std::size_t(i)] = std::uint8_t(huge >> (8 * i));
  }
  {
    std::ofstream out(path("overflow.ckpt"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              std::streamsize(blob.size()));
  }
  EXPECT_THROW(gc::load_checkpoint(path("overflow.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, BitFlipIsDetected) {
  gc::Checkpoint original;
  original.iteration = 99;
  original.parameters = random_vector(128, 7);
  original.velocity = random_vector(128, 8);
  gc::save_checkpoint(path("flip.ckpt"), original);

  // Flip one payload byte in the second (velocity) message.
  std::fstream f(path("flip.ckpt"),
                 std::ios::binary | std::ios::in | std::ios::out);
  const std::size_t head = gn::wire_size(original.parameters.size());
  f.seekp(std::streamoff(head + 40));
  char byte = 0;
  f.seekg(std::streamoff(head + 40));
  f.read(&byte, 1);
  byte = char(byte ^ 0x20);
  f.seekp(std::streamoff(head + 40));
  f.write(&byte, 1);
  f.close();

  EXPECT_THROW(gc::load_checkpoint(path("flip.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, TruncationIsDetected) {
  gc::Checkpoint original;
  original.iteration = 5;
  original.parameters = random_vector(64, 9);
  original.velocity = random_vector(64, 10);
  gc::save_checkpoint(path("trunc.ckpt"), original);

  const auto full = std::filesystem::file_size(path("trunc.ckpt"));
  std::filesystem::resize_file(path("trunc.ckpt"), full - 5);
  EXPECT_THROW(gc::load_checkpoint(path("trunc.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, SaveLeavesNoTempFileBehind) {
  gc::Checkpoint original;
  original.iteration = 1;
  original.parameters = random_vector(8, 11);
  gc::save_checkpoint(path("atomic.ckpt"), original);
  EXPECT_TRUE(std::filesystem::exists(path("atomic.ckpt")));
  EXPECT_FALSE(tmp_left_for(path("atomic.ckpt")));
}

TEST_F(CheckpointRoundTrip, TwoProcessesSavingOnePathNeverTearIt) {
  // Two tcp ranks may checkpoint to the same path during a failover. Each
  // writer must use its own tmp file: with a shared one, a writer can
  // rename the other's half-written bytes into place.
  const std::string target = path("shared.ckpt");
  gc::Checkpoint a, b;
  a.iteration = 1;
  a.parameters = random_vector(4096, 21);
  b.iteration = 2;
  b.parameters = random_vector(4096, 22);
  std::vector<pid_t> children;
  for (const gc::Checkpoint* mine : {&a, &b}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int status = 0;
      try {
        for (int i = 0; i < 40; ++i) gc::save_checkpoint(target, *mine);
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const gc::Checkpoint loaded = gc::load_checkpoint(target);
  const gc::Checkpoint& expected = loaded.iteration == 1 ? a : b;
  EXPECT_EQ(loaded.parameters, expected.parameters);
  EXPECT_FALSE(tmp_left_for(target));
}

TEST_F(CheckpointRoundTrip, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(gc::load_checkpoint(path("does_not_exist.ckpt")),
               std::runtime_error);
}

TEST_F(CheckpointRoundTrip, EmptyFileIsRejectedWithAPointedMessage) {
  // An empty file used to reach net::encoded_size and die on a generic
  // "truncated header"; the loader must say what actually happened — the
  // checkpoint on disk is empty (e.g. a crash before any bytes landed).
  { std::ofstream out(path("empty.ckpt"), std::ios::binary); }
  try {
    (void)gc::load_checkpoint(path("empty.ckpt"));
    FAIL() << "empty checkpoint must not load";
  } catch (const gn::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRoundTrip, SubHeaderFileIsRejectedAsTruncated) {
  // Shorter than one wire header: no field of it is trustworthy.
  {
    std::ofstream out(path("stub.ckpt"), std::ios::binary);
    out.write("GRFD\x01\x00\x00\x00\x99", 9);
  }
  try {
    (void)gc::load_checkpoint(path("stub.ckpt"));
    FAIL() << "sub-header checkpoint must not load";
  } catch (const gn::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRoundTrip, TruncatedParametersAreRejected) {
  // Header intact, parameter payload cut mid-vector — the header's element
  // count must trip the truncation check, not index past the blob.
  gc::Checkpoint original;
  original.iteration = 3;
  original.parameters = random_vector(64, 14);
  gc::save_checkpoint(path("cutparams.ckpt"), original);
  std::filesystem::resize_file(path("cutparams.ckpt"),
                               gn::wire_size(0) + 12);
  EXPECT_THROW(gc::load_checkpoint(path("cutparams.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, TruncatedVelocityTailIsRejected) {
  // Cut inside the velocity message's own header: the parameters decode
  // fine, the tail must still fail loudly instead of loading param-only.
  gc::Checkpoint original;
  original.iteration = 4;
  original.parameters = random_vector(32, 15);
  original.velocity = random_vector(32, 16);
  gc::save_checkpoint(path("cutvel.ckpt"), original);
  const std::size_t head = gn::wire_size(original.parameters.size());
  std::filesystem::resize_file(path("cutvel.ckpt"), head + 10);
  EXPECT_THROW(gc::load_checkpoint(path("cutvel.ckpt")), gn::WireError);
}

// ------------------------------------------- verified state-transfer blobs
//
// The same serialized form a recovering replica pulls over get_checkpoint.
// The whole-blob digest must catch the corruptions the per-message CRCs
// are blind to: a flipped iteration tag (outside the payload CRC), spliced
// messages from different checkpoints, a stripped trailer.

TEST_F(CheckpointRoundTrip, StateBlobRoundTripsThroughTheRpcCarrier) {
  gc::Checkpoint original;
  original.iteration = 321;
  original.parameters = random_vector(257, 20);
  original.velocity = random_vector(257, 21);

  const std::vector<std::uint8_t> blob = gc::encode_checkpoint_blob(original);
  // pack_bytes/unpack_bytes is the float-payload carrier the RPC uses.
  const auto carrier = gc::pack_bytes(blob);
  const std::vector<std::uint8_t> shipped = gc::unpack_bytes(carrier, "test");
  ASSERT_EQ(shipped, blob);

  const gc::Checkpoint loaded = gc::decode_checkpoint_blob(shipped, "test");
  EXPECT_EQ(loaded.iteration, original.iteration);
  EXPECT_EQ(std::memcmp(loaded.parameters.data(), original.parameters.data(),
                        original.parameters.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(loaded.velocity.data(), original.velocity.data(),
                        original.velocity.size() * sizeof(float)),
            0);
}

TEST_F(CheckpointRoundTrip, TamperedIterationTagFailsTheDigest) {
  // The iteration tag at offset 8 is NOT covered by the per-message payload
  // CRC — flipping it yields a blob whose messages decode "cleanly" into
  // the wrong step. Exactly what a corrupt_recovery server serves; the
  // digest must reject it before any decode.
  gc::Checkpoint original;
  original.iteration = 50;
  original.parameters = random_vector(64, 22);
  std::vector<std::uint8_t> blob = gc::encode_checkpoint_blob(original);
  blob[8] ^= 0x01;
  try {
    (void)gc::decode_checkpoint_blob(blob, "transfer from server 2");
    FAIL() << "tampered iteration tag must not decode";
  } catch (const gn::WireError& e) {
    // The error names the context so NetStats diagnostics can say WHICH
    // peer served the tampered blob.
    EXPECT_NE(std::string(e.what()).find("transfer from server 2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRoundTrip, AnySingleByteTamperFailsTheDigest) {
  gc::Checkpoint original;
  original.iteration = 7;
  original.parameters = random_vector(48, 23);
  original.velocity = random_vector(48, 24);
  const std::vector<std::uint8_t> sealed =
      gc::encode_checkpoint_blob(original);
  garfield::tensor::Rng rng(25);
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> blob = sealed;
    blob[rng.index(blob.size())] ^= std::uint8_t(1U << rng.index(8));
    EXPECT_THROW((void)gc::decode_checkpoint_blob(blob, "tamper"),
                 gn::WireError);
  }
}

TEST_F(CheckpointRoundTrip, SplicedMessagesFromTwoCheckpointsAreRejected) {
  // Paste checkpoint A's parameters message together with checkpoint B's
  // velocity message (same iteration, same dimension — every per-message
  // check passes) and reseal nothing: the digest over the splice is absent.
  gc::Checkpoint a, b;
  a.iteration = b.iteration = 9;
  a.parameters = random_vector(32, 26);
  a.velocity = random_vector(32, 27);
  b.parameters = random_vector(32, 28);
  b.velocity = random_vector(32, 29);
  const std::vector<std::uint8_t> blob_a = gc::encode_checkpoint_blob(a);
  const std::vector<std::uint8_t> blob_b = gc::encode_checkpoint_blob(b);
  const std::size_t head = gn::wire_size(a.parameters.size());
  std::vector<std::uint8_t> spliced(blob_a.begin(),
                                    blob_a.begin() + std::ptrdiff_t(head));
  spliced.insert(spliced.end(), blob_b.begin() + std::ptrdiff_t(head),
                 blob_b.end());
  EXPECT_THROW((void)gc::decode_checkpoint_blob(spliced, "splice"),
               gn::WireError);
}

TEST_F(CheckpointRoundTrip, MissingTrailerIsRejectedOnTheTransferPath) {
  // A pre-digest blob is tolerated on local disk (legacy files) but never
  // on the state-transfer path: stripping the trailer must read as
  // tampering there.
  gc::Checkpoint original;
  original.iteration = 11;
  original.parameters = random_vector(16, 30);
  std::vector<std::uint8_t> blob = gc::encode_checkpoint_blob(original);
  blob.resize(blob.size() - 8);  // strip magic + digest
  try {
    (void)gc::decode_checkpoint_blob(blob, "strip");
    FAIL() << "trailer-less transfer blob must not decode";
  } catch (const gn::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("trailer"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRoundTrip, TamperedFileOnDiskFailsTheDigestToo) {
  // save_checkpoint seals the digest; a byte flipped anywhere in the file
  // — including the header fields outside any payload CRC — must fail the
  // load.
  gc::Checkpoint original;
  original.iteration = 77;
  original.parameters = random_vector(32, 31);
  gc::save_checkpoint(path("sealed.ckpt"), original);
  std::fstream f(path("sealed.ckpt"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // iteration tag, outside the per-message payload CRC
  char byte = 0;
  f.seekg(8);
  f.read(&byte, 1);
  byte = char(byte ^ 0x01);
  f.seekp(8);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW((void)gc::load_checkpoint(path("sealed.ckpt")), gn::WireError);
}

TEST_F(CheckpointRoundTrip, ByteCarrierRejectsInconsistentLengths) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  auto carrier = gc::pack_bytes(bytes);
  // Claim more bytes than the carrier holds.
  std::uint32_t lie = 64;
  std::memcpy(carrier.data(), &lie, 4);
  EXPECT_THROW((void)gc::unpack_bytes(carrier, "carrier"), gn::WireError);
  // Claim far fewer than the trailing elements imply (torn carrier).
  lie = 0;
  std::memcpy(carrier.data(), &lie, 4);
  EXPECT_THROW((void)gc::unpack_bytes(carrier, "carrier"), gn::WireError);
  EXPECT_THROW((void)gc::unpack_bytes(std::vector<float>{}, "carrier"),
               gn::WireError);
  // Empty blob round-trips.
  const auto empty = gc::pack_bytes(std::vector<std::uint8_t>{});
  EXPECT_TRUE(gc::unpack_bytes(empty, "carrier").empty());
}

TEST_F(CheckpointRoundTrip, RenameFailureThrowsAndCleansUpTheTempFile) {
  // Make the final path un-renameable-to: a non-empty directory. The write
  // of the tmp file succeeds, the commit rename fails — save_checkpoint
  // must surface that as an error (the checkpoint is NOT durable) and not
  // leave the orphaned tmp file around.
  const std::string target = path("blocked.ckpt");
  std::filesystem::create_directories(std::filesystem::path(target) /
                                      "occupant");
  gc::Checkpoint ckpt;
  ckpt.iteration = 2;
  ckpt.parameters = random_vector(8, 17);
  EXPECT_THROW(gc::save_checkpoint(target, ckpt), std::runtime_error);
  EXPECT_FALSE(tmp_left_for(target));
}
