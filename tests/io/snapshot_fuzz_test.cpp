// Adversarial-input coverage for the snapshot stack: the varint codec
// fuzzed against the scalar reference under every selectable kernel ISA,
// malformed varint rejection, and seeded corruption / truncation fuzz
// proving MappedSnapshot fails cleanly (SnapshotError, never UB — the
// ASan CI job runs this loud) on damaged files.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dist/comm.h"
#include "graph/generators.h"
#include "graph/vertex_set.h"
#include "io/snapshot.h"
#include "support/rng.h"
#include "test_util.h"

namespace graphpi {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << path;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(VarintFuzz, EveryIsaMatchesTheScalarReference) {
  support::Xoshiro256StarStar rng(0xF00D);
  for (int trial = 0; trial < 50; ++trial) {
    // Length and magnitude mixes chosen to cross every fast-path
    // boundary: all-1-byte runs, mixed widths, and 5-byte maxima.
    const std::size_t count = 1 + rng.bounded(400);
    std::vector<std::uint32_t> values(count);
    std::vector<std::uint8_t> encoded;
    for (auto& v : values) {
      switch (rng.bounded(4)) {
        case 0: v = static_cast<std::uint32_t>(rng.bounded(0x80)); break;
        case 1: v = static_cast<std::uint32_t>(rng.bounded(0x4000)); break;
        case 2: v = static_cast<std::uint32_t>(rng.bounded(1u << 28)); break;
        default: v = static_cast<std::uint32_t>(rng.next()); break;
      }
      io::append_varint(encoded, v);
    }
    std::vector<std::uint32_t> scalar(count);
    ASSERT_EQ(varint_decode_u32_scalar(encoded, count, scalar.data()),
              encoded.size());
    ASSERT_EQ(scalar, values);

    for (const KernelIsa isa :
         {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      const testing::IsaGuard guard(isa);
      if (!guard.selected()) continue;
      std::vector<std::uint32_t> got(count);
      EXPECT_EQ(varint_decode_u32(encoded, count, got.data()), encoded.size())
          << to_string(isa) << " trial " << trial;
      EXPECT_EQ(got, values) << to_string(isa) << " trial " << trial;
    }
  }
}

TEST(VarintFuzz, TruncationAndOverflowAreMalformed) {
  std::vector<std::uint8_t> encoded;
  io::append_varint(encoded, 1);
  io::append_varint(encoded, 0xFFFFFFFFu);  // 5 bytes
  io::append_varint(encoded, 300);          // 2 bytes
  std::vector<std::uint32_t> out(3);
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const testing::IsaGuard guard(isa);
    if (!guard.selected()) continue;
    // Every proper prefix that cuts a varint mid-byte-sequence fails.
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      if (len == 1) continue;  // clean boundary after the first value
      EXPECT_EQ(varint_decode_u32({encoded.data(), len}, 3, out.data()),
                kVarintMalformed)
          << to_string(isa) << " len " << len;
    }
    // A 5th byte with payload bits above u32 range is rejected.
    const std::vector<std::uint8_t> overflow = {0xFF, 0xFF, 0xFF, 0xFF, 0x10};
    EXPECT_EQ(varint_decode_u32(overflow, 1, out.data()), kVarintMalformed)
        << to_string(isa);
    // A varint running past 5 bytes (continuation never clears) too.
    const std::vector<std::uint8_t> runaway(8, 0xFF);
    EXPECT_EQ(varint_decode_u32(runaway, 1, out.data()), kVarintMalformed)
        << to_string(isa);
  }
}

class SnapshotCorruptionFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("graphpi_snap_fuzz_pristine.gps");
    damaged_ = temp_path("graphpi_snap_fuzz_damaged.gps");
    const Graph g = clustered_power_law(220, 1000, 2.3, 0.4, 61);
    io::SnapshotOptions options;
    options.block_vertices = 64;  // several blocks -> index gets exercised
    io::save_snapshot(g.reorder_by_degree(), path_, options);
    pristine_ = read_file(path_);
    ASSERT_GT(pristine_.size(), 100u);
  }
  void TearDown() override {
    fs::remove(path_);
    fs::remove(damaged_);
  }

  /// The pristine file must open and fully decode; any damaged variant
  /// must throw SnapshotError from open or decode — never crash, hang,
  /// or return a graph silently.
  void expect_rejected(const std::vector<std::uint8_t>& bytes,
                       const std::string& label) {
    write_file(damaged_, bytes);
    EXPECT_THROW(
        {
          const io::MappedSnapshot snap(damaged_);
          (void)snap.decode_graph();
        },
        io::SnapshotError)
        << label;
  }

  std::string path_;
  std::string damaged_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(SnapshotCorruptionFuzz, PristineFileDecodes) {
  const io::MappedSnapshot snap(path_);
  EXPECT_TRUE(snap.decode_graph().validate());
}

TEST_F(SnapshotCorruptionFuzz, SingleByteFlipsAreAlwaysRejected) {
  // Every byte of the file is covered by a CRC (header, index, or block
  // payload), so any single-bit-pattern change must be caught.
  support::Xoshiro256StarStar rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = pristine_;
    const std::size_t pos = rng.bounded(bytes.size());
    const auto flip =
        static_cast<std::uint8_t>(1u << rng.bounded(8));
    bytes[pos] ^= flip;
    expect_rejected(bytes, "flip bit at byte " + std::to_string(pos));
  }
}

TEST_F(SnapshotCorruptionFuzz, TruncationsAreAlwaysRejected) {
  support::Xoshiro256StarStar rng(0xBEEF);
  std::vector<std::size_t> lengths = {0, 1, 4, 55, 56, 57};
  for (int trial = 0; trial < 60; ++trial)
    lengths.push_back(rng.bounded(pristine_.size()));
  lengths.push_back(pristine_.size() - 1);
  for (const std::size_t len : lengths) {
    ASSERT_LT(len, pristine_.size());
    expect_rejected({pristine_.begin(),
                     pristine_.begin() + static_cast<std::ptrdiff_t>(len)},
                    "truncate to " + std::to_string(len));
  }
}

TEST_F(SnapshotCorruptionFuzz, TrailingGarbageAfterAValidFileIsHarmless) {
  // Appended bytes don't invalidate the indexed regions; the reader
  // must keep working (forward-compat niche: padded files).
  std::vector<std::uint8_t> bytes = pristine_;
  bytes.insert(bytes.end(), 33, 0xAB);
  write_file(damaged_, bytes);
  const io::MappedSnapshot snap(damaged_);
  EXPECT_TRUE(snap.decode_graph().validate());
}

TEST_F(SnapshotCorruptionFuzz, AuxOffsetNearU64MaxIsRejected) {
  // `aux_offset + aux_bytes + 4` wraps u64 for offsets near 2^64; the
  // reader's subtraction-form bound must reject the file instead of
  // reading through data_ + aux_offset. Header CRC is recomputed so
  // only the geometry check stands between the file and the wild read.
  std::vector<std::uint8_t> bytes = pristine_;
  std::uint32_t flags;
  std::memcpy(&flags, bytes.data() + 8, 4);
  flags |= 1u << 2;  // kFlagHasAux
  std::memcpy(bytes.data() + 8, &flags, 4);
  const std::uint64_t aux_offset = ~std::uint64_t{0} - 9;  // 2^64 - 10
  const std::uint32_t aux_bytes = 8;
  std::memcpy(bytes.data() + 40, &aux_offset, 8);
  std::memcpy(bytes.data() + 48, &aux_bytes, 4);
  const std::uint32_t crc = dist::crc32({bytes.data(), 52});
  std::memcpy(bytes.data() + 52, &crc, 4);
  expect_rejected(bytes, "aux offset near u64 max");
}

TEST(SnapshotCrafted, IndexSlotsBeyondHeaderSlotCountAreRejected) {
  // Bit flips can't reach this bug class because every region is CRC
  // framed, so build the malicious file wholesale: all CRCs valid and
  // every per-region check self-consistent, but the block index claims
  // block 0 holds 1000 slots while the header budgets 10 for the whole
  // graph. If open accepted it, decode (whose degree stream really does
  // sum to 1000) would write 1000 neighbors into a 10-slot array.
  const auto put_u32 = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    const auto off = out.size();
    out.resize(off + 4);
    std::memcpy(out.data() + off, &v, 4);
  };
  const auto put_u64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    const auto off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &v, 8);
  };

  // Block 0 (vertices 0..63): 40 rows of degree 25 (ids 0..24), sum 1000.
  std::vector<std::uint8_t> degrees0, heads0, deltas0;
  for (int v = 0; v < 64; ++v)
    io::append_varint(degrees0, v < 40 ? 25u : 0u);
  for (int row = 0; row < 40; ++row) {
    io::append_varint(heads0, 0);
    for (int k = 1; k < 25; ++k) io::append_varint(deltas0, 1);
  }
  const auto make_block = [&put_u32](const std::vector<std::uint8_t>& degrees,
                                     const std::vector<std::uint8_t>& heads,
                                     const std::vector<std::uint8_t>& deltas) {
    std::vector<std::uint8_t> block;
    put_u32(block, static_cast<std::uint32_t>(degrees.size()));
    put_u32(block, static_cast<std::uint32_t>(heads.size()));
    put_u32(block, static_cast<std::uint32_t>(deltas.size()));
    block.insert(block.end(), degrees.begin(), degrees.end());
    block.insert(block.end(), heads.begin(), heads.end());
    block.insert(block.end(), deltas.begin(), deltas.end());
    return block;
  };
  const std::vector<std::uint8_t> block0 =
      make_block(degrees0, heads0, deltas0);
  // Block 1 (vertices 64..127): all rows empty.
  const std::vector<std::uint8_t> block1 =
      make_block(std::vector<std::uint8_t>(64, 0), {}, {});

  const std::uint64_t payload_base = 56 + 2 * 24 + 4;
  std::vector<std::uint8_t> index;
  put_u64(index, payload_base);
  put_u64(index, 0);  // block 0 first_slot
  put_u32(index, static_cast<std::uint32_t>(block0.size()));
  put_u32(index, dist::crc32(block0));
  put_u64(index, payload_base + block0.size());
  put_u64(index, 1000);  // block 1 first_slot: far past the header's 10
  put_u32(index, static_cast<std::uint32_t>(block1.size()));
  put_u32(index, dist::crc32(block1));
  put_u32(index, dist::crc32(index));

  std::vector<std::uint8_t> file(4);
  std::memcpy(file.data(), "GPS1", 4);
  put_u32(file, 1);    // version
  put_u32(file, 0);    // flags
  put_u32(file, 128);  // vertex_count
  put_u64(file, 10);   // slot_count: the lie
  put_u32(file, 64);   // block_vertices
  put_u32(file, 2);    // block_count
  put_u64(file, 0);    // triangles
  put_u64(file, 0);    // aux offset
  put_u32(file, 0);    // aux bytes
  put_u32(file, dist::crc32(file));
  file.insert(file.end(), index.begin(), index.end());
  file.insert(file.end(), block0.begin(), block0.end());
  file.insert(file.end(), block1.begin(), block1.end());

  const std::string path = temp_path("graphpi_snap_crafted_slots.gps");
  write_file(path, file);
  EXPECT_THROW(
      {
        const io::MappedSnapshot snap(path);
        (void)snap.decode_graph();
      },
      io::SnapshotError);
  fs::remove(path);
}

TEST(SnapshotErrors, MissingAndForeignFilesThrow) {
  EXPECT_THROW((void)Graph::load_snapshot(
                   temp_path("graphpi_snap_does_not_exist.gps")),
               io::SnapshotError);
  const std::string path = temp_path("graphpi_snap_foreign.bin");
  write_file(path, {'G', 'P', 'I', '1', 0, 0, 0, 0});  // binary-CSR magic
  EXPECT_THROW((void)Graph::load_snapshot(path), io::SnapshotError);
  fs::remove(path);
}

}  // namespace
}  // namespace graphpi
