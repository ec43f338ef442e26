/**
 * @file
 * Tests for checkpoint save/load round trips and failure modes,
 * including a corruption/truncation matrix over the on-disk format.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nn/checkpoint.h"
#include "nn/model.h"

namespace qt8 {
namespace {

ModelConfig
tinyConfig()
{
    ModelConfig cfg;
    cfg.name = "ckpt-test";
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    return cfg;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    // ctest runs every case as its own process, so each case gets its
    // own file: the test name plus the pid.
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "qt8_ckpt_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".bin";
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

TEST_F(CheckpointTest, RoundTripRestoresValues)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    ASSERT_TRUE(saveCheckpoint(path_, pa));

    // A different seed gives different weights...
    EncoderSpanQA b(tinyConfig(), 202);
    ParamList pb;
    b.collectParams(pb);
    bool any_diff = false;
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->value.numel(); ++j)
            any_diff |= pa[i]->value.at(j) != pb[i]->value.at(j);
    ASSERT_TRUE(any_diff);

    // ...until we load the checkpoint.
    ASSERT_TRUE(loadCheckpoint(path_, pb));
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->value.numel(); ++j)
            ASSERT_EQ(pa[i]->value.at(j), pb[i]->value.at(j))
                << pa[i]->name;
}

TEST_F(CheckpointTest, ArchitectureMismatchRejected)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    ASSERT_TRUE(saveCheckpoint(path_, pa));

    ModelConfig other = tinyConfig();
    other.d_model = 32;
    other.d_ff = 64;
    EncoderSpanQA b(other, 202);
    ParamList pb;
    b.collectParams(pb);
    const float before = pb[0]->value.at(0);
    EXPECT_FALSE(loadCheckpoint(path_, pb));
    // Untouched on failure.
    EXPECT_EQ(pb[0]->value.at(0), before);
}

TEST_F(CheckpointTest, MissingFileRejected)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    EXPECT_FALSE(loadCheckpoint(path_, pa)); // never written
}

TEST_F(CheckpointTest, CorruptMagicRejected)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTACKPT", f);
    std::fclose(f);
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    std::string why;
    EXPECT_FALSE(loadCheckpoint(path_, pa, &why));
    EXPECT_NE(why.find("magic"), std::string::npos) << why;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32Test, KnownVector)
{
    // IEEE 802.3 check value for the standard "123456789" input.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    // Incremental == one-shot.
    const uint32_t part = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

/// Flip a single bit at sampled offsets across the whole file; every
/// flip must make the load fail (magic/count/name/shape mismatch, CRC
/// mismatch, or trailer damage) and leave the params untouched.
TEST_F(CheckpointTest, AnySingleBitFlipRejected)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    ASSERT_TRUE(saveCheckpoint(path_, pa));
    const std::vector<uint8_t> good = readAll(path_);
    ASSERT_GT(good.size(), 64u);

    EncoderSpanQA b(tinyConfig(), 202);
    ParamList pb;
    b.collectParams(pb);
    const float sentinel = pb[0]->value.at(0);

    // Sample ~200 offsets, always covering the first and last 32 bytes
    // (magic / header and trailer).
    std::vector<size_t> offsets;
    for (size_t off = 0; off < 32 && off < good.size(); ++off)
        offsets.push_back(off);
    for (size_t off = good.size() - 32; off < good.size(); ++off)
        offsets.push_back(off);
    const size_t stride = good.size() / 200 + 1;
    for (size_t off = 32; off + 32 < good.size(); off += stride)
        offsets.push_back(off);

    for (size_t off : offsets) {
        std::vector<uint8_t> bad = good;
        bad[off] ^= uint8_t(1u << (off % 8));
        writeAll(path_, bad);
        std::string why;
        EXPECT_FALSE(loadCheckpoint(path_, pb, &why))
            << "bit flip at offset " << off << " loaded anyway";
        EXPECT_FALSE(why.empty()) << "no reason for flip at " << off;
        EXPECT_EQ(pb[0]->value.at(0), sentinel)
            << "params modified by failed load (offset " << off << ")";
    }

    // The pristine file still loads after all that.
    writeAll(path_, good);
    EXPECT_TRUE(loadCheckpoint(path_, pb));
}

/// Truncate at sampled lengths; a partial file must never load. The
/// end trailer is what catches clean cuts at record boundaries.
TEST_F(CheckpointTest, AnyTruncationRejected)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    ASSERT_TRUE(saveCheckpoint(path_, pa));
    const std::vector<uint8_t> good = readAll(path_);

    EncoderSpanQA b(tinyConfig(), 202);
    ParamList pb;
    b.collectParams(pb);
    const float sentinel = pb[0]->value.at(0);

    std::vector<size_t> cuts = {0, 4, 8, 12, 16};
    const size_t stride = good.size() / 64 + 1;
    for (size_t cut = 17; cut < good.size(); cut += stride)
        cuts.push_back(cut);
    for (size_t back = 1; back <= 16; ++back)
        cuts.push_back(good.size() - back);

    for (size_t cut : cuts) {
        writeAll(path_, std::vector<uint8_t>(good.begin(),
                                             good.begin() + cut));
        std::string why;
        EXPECT_FALSE(loadCheckpoint(path_, pb, &why))
            << "truncation to " << cut << " bytes loaded anyway";
        EXPECT_EQ(pb[0]->value.at(0), sentinel);
    }
}

TEST_F(CheckpointTest, TrailingGarbageRejected)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);
    ASSERT_TRUE(saveCheckpoint(path_, pa));
    std::vector<uint8_t> bytes = readAll(path_);
    bytes.push_back(0xEE);
    writeAll(path_, bytes);
    std::string why;
    EXPECT_FALSE(loadCheckpoint(path_, pa, &why));
    EXPECT_NE(why.find("trailing"), std::string::npos) << why;
}

/// Version-1 files (no CRC, no trailer) predate the hardening and must
/// still load byte-exactly through the legacy path.
TEST_F(CheckpointTest, LegacyV1FileLoads)
{
    EncoderSpanQA a(tinyConfig(), 101);
    ParamList pa;
    a.collectParams(pa);

    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    auto put_u64 = [&](uint64_t v) {
        ASSERT_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
    };
    ASSERT_EQ(std::fwrite("QT8CKPT1", 8, 1, f), 1u);
    put_u64(pa.size());
    for (const Param *p : pa) {
        put_u64(p->name.size());
        ASSERT_EQ(std::fwrite(p->name.data(), 1, p->name.size(), f),
                  p->name.size());
        const auto &shape = p->value.shape();
        put_u64(shape.size());
        for (int64_t d : shape)
            put_u64(static_cast<uint64_t>(d));
        const size_t n = static_cast<size_t>(p->value.numel());
        ASSERT_EQ(std::fwrite(p->value.data(), sizeof(float), n, f), n);
    }
    std::fclose(f);

    EncoderSpanQA b(tinyConfig(), 202);
    ParamList pb;
    b.collectParams(pb);
    std::string why;
    ASSERT_TRUE(loadCheckpoint(path_, pb, &why)) << why;
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->value.numel(); ++j)
            ASSERT_EQ(pa[i]->value.at(j), pb[i]->value.at(j))
                << pa[i]->name;
}

} // namespace
} // namespace qt8
