#include "base/capsule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace repro::capsule {
namespace {

enum class Flavor : std::uint8_t { kPlain = 1, kFancy = 7 };

/// A struct exercising every Io primitive through the one-walk idiom
/// the real components use.
struct Blob {
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 0.0;
  bool g = false;
  std::string h;
  Flavor flavor = Flavor::kPlain;
  std::vector<std::uint32_t> items;

  void serialize(Io& io) {
    io.u8(a);
    io.u16(b);
    io.u32(c);
    io.u64(d);
    io.i64(e);
    io.f64(f);
    io.boolean(g);
    io.str(h);
    io.enum32(flavor, Flavor::kFancy);
    const std::uint64_t n = io.extent(items.size());
    if (io.loading()) {
      items.assign(static_cast<std::size_t>(n), 0);
    }
    for (std::uint32_t& item : items) {
      io.u32(item);
    }
  }
};

Blob sample_blob() {
  Blob blob;
  blob.a = 0xA5;
  blob.b = 0xBEEF;
  blob.c = 0xDEADBEEF;
  blob.d = 0x0123456789ABCDEFULL;
  blob.e = -42;
  blob.f = 0.1;
  blob.g = true;
  blob.h = "nine sessions";
  blob.flavor = Flavor::kFancy;
  blob.items = {1, 2, 3, 0xFFFFFFFF};
  return blob;
}

TEST(CapsuleIo, PrimitivesRoundTrip) {
  Blob out = sample_blob();
  Io saver = Io::saver();
  out.serialize(saver);

  Blob in;
  Io loader = Io::loader(saver.bytes());
  in.serialize(loader);

  EXPECT_EQ(in.a, out.a);
  EXPECT_EQ(in.b, out.b);
  EXPECT_EQ(in.c, out.c);
  EXPECT_EQ(in.d, out.d);
  EXPECT_EQ(in.e, out.e);
  EXPECT_EQ(in.f, out.f);
  EXPECT_EQ(in.g, out.g);
  EXPECT_EQ(in.h, out.h);
  EXPECT_EQ(in.flavor, out.flavor);
  EXPECT_EQ(in.items, out.items);
  EXPECT_TRUE(loader.exhausted());
}

TEST(CapsuleIo, DoublesKeepTheirExactBitPattern) {
  // NaN payloads and negative zero don't survive value comparison, so
  // the walk must transport the raw bit pattern.
  const std::uint64_t nan_bits = 0x7FF8DEADBEEF1234ULL;
  double out = std::bit_cast<double>(nan_bits);
  Io saver = Io::saver();
  saver.f64(out);

  double in = 0.0;
  Io loader = Io::loader(saver.bytes());
  loader.f64(in);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in), nan_bits);

  double zero = -0.0;
  Io saver2 = Io::saver();
  saver2.f64(zero);
  double back = 0.0;
  Io loader2 = Io::loader(saver2.bytes());
  loader2.f64(back);
  EXPECT_TRUE(std::signbit(back));
}

TEST(CapsuleIo, SaverDigestEqualsDigesterDigest) {
  // The contract the whole checkpoint design leans on: digesting in
  // place sees exactly the bytes a save would encode.
  Blob blob = sample_blob();
  Io saver = Io::saver();
  blob.serialize(saver);
  Io digester = Io::digester();
  blob.serialize(digester);
  EXPECT_EQ(saver.digest(), digester.digest());
  EXPECT_TRUE(digester.bytes().empty());
}

TEST(CapsuleIo, DigestDiscriminatesContent) {
  Blob a = sample_blob();
  Blob b = sample_blob();
  b.items.back() ^= 1;
  Io da = Io::digester();
  a.serialize(da);
  Io db = Io::digester();
  b.serialize(db);
  EXPECT_NE(da.digest(), db.digest());
}

TEST(CapsuleIo, RejectsCorruptBoolEncoding) {
  Io loader = Io::loader({2});
  bool value = false;
  EXPECT_THROW(loader.boolean(value), CapsuleError);
}

TEST(CapsuleIo, RejectsTruncatedPayload) {
  Io loader = Io::loader({0x01, 0x02});
  std::uint32_t value = 0;
  EXPECT_THROW(loader.u32(value), CapsuleError);
}

TEST(CapsuleIo, RejectsStringPastPayloadEnd) {
  // Length prefix claims 5 bytes; only 2 follow.
  std::vector<std::uint8_t> payload = {5, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'};
  Io loader = Io::loader(std::move(payload));
  std::string value;
  EXPECT_THROW(loader.str(value), CapsuleError);
}

TEST(CapsuleIo, ExhaustedTracksConsumption) {
  Io saver = Io::saver();
  std::uint64_t value = 7;
  saver.u64(value);
  Io loader = Io::loader(saver.bytes());
  EXPECT_FALSE(loader.exhausted());
  std::uint64_t back = 0;
  loader.u64(back);
  EXPECT_TRUE(loader.exhausted());
}

TEST(CapsuleEnvelope, SealUnsealRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(unseal(seal(payload)), payload);
  EXPECT_EQ(unseal(seal({})), std::vector<std::uint8_t>{});
}

TEST(CapsuleEnvelope, RejectsBadMagic) {
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed[0] = 'G';
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
}

TEST(CapsuleEnvelope, RejectsVersionSkew) {
  // The u32 format version sits right after the 8-byte magic.
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
}

TEST(CapsuleEnvelope, RejectsTruncation) {
  std::vector<std::uint8_t> sealed = seal({1, 2, 3});
  sealed.pop_back();
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
  EXPECT_THROW((void)unseal({sealed.begin(), sealed.begin() + 4}),
               CapsuleError);
}

TEST(CapsuleEnvelope, RejectsPayloadCorruption) {
  std::vector<std::uint8_t> sealed = seal({1, 2, 3, 4});
  // Flip one payload bit; the trailing digest must catch it.
  sealed[8 + 4 + 8 + 1] ^= 0x40;
  EXPECT_THROW((void)unseal(sealed), CapsuleError);
}

TEST(CapsuleFile, WriteReadRoundTrip) {
  const std::string path = "capsule_test_roundtrip.fx8caps";
  const std::vector<std::uint8_t> sealed = seal({9, 8, 7});
  write_file(path, sealed);
  EXPECT_EQ(read_file(path), sealed);
  std::remove(path.c_str());
}

TEST(CapsuleFile, MissingFileThrows) {
  EXPECT_THROW((void)read_file("no-such-dir/no-such-capsule.fx8caps"),
               CapsuleError);
  EXPECT_THROW(write_file("no-such-dir/no-such-capsule.fx8caps", {}),
               CapsuleError);
}

}  // namespace
}  // namespace repro::capsule
