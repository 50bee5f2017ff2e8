#include <gtest/gtest.h>

#include <memory>

#include "fs/filesystem.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    fs_ = std::make_unique<FileSystem>(*system_);
  }

  Status Write(const std::string& path, std::uint64_t off,
               const util::Bytes& data) {
    Status st = Status::kIoError;
    fs_->Write(path, off, data, [&](Status s) { st = s; });
    engine_.Run();
    return st;
  }

  std::pair<Status, util::Bytes> Read(const std::string& path,
                                      std::uint64_t off, std::uint64_t len) {
    Status st = Status::kIoError;
    util::Bytes out;
    fs_->Read(path, off, len, [&](Status s, util::Bytes d) {
      st = s;
      out = std::move(d);
    });
    engine_.Run();
    return {st, std::move(out)};
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<FileSystem> fs_;
};

TEST_F(FsTest, CreateWriteReadRoundtrip) {
  ASSERT_EQ(fs_->Create("/data.bin"), Status::kOk);
  const auto data = Pattern(3 * util::MiB + 12345, 1);
  ASSERT_EQ(Write("/data.bin", 0, data), Status::kOk);
  auto [st, got] = Read("/data.bin", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);
  EXPECT_EQ(fs_->Stat("/data.bin")->size, data.size());
}

TEST_F(FsTest, DirectoryTreeOperations) {
  EXPECT_EQ(fs_->Mkdir("/projects"), Status::kOk);
  EXPECT_EQ(fs_->Mkdir("/projects/fusion"), Status::kOk);
  EXPECT_EQ(fs_->Create("/projects/fusion/run1.dat"), Status::kOk);
  EXPECT_EQ(fs_->Create("/projects/fusion/run2.dat"), Status::kOk);
  EXPECT_TRUE(fs_->Exists("/projects/fusion/run1.dat"));
  const auto names = fs_->List("/projects/fusion");
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(fs_->Mkdir("/projects"), Status::kExists);
  EXPECT_EQ(fs_->Create("/missing/x"), Status::kNotFound);
  EXPECT_EQ(fs_->Rmdir("/projects/fusion"), Status::kNotEmpty);
  EXPECT_EQ(fs_->Unlink("/projects/fusion/run1.dat"), Status::kOk);
  EXPECT_EQ(fs_->Unlink("/projects/fusion/run2.dat"), Status::kOk);
  EXPECT_EQ(fs_->Rmdir("/projects/fusion"), Status::kOk);
  EXPECT_FALSE(fs_->Exists("/projects/fusion"));
}

TEST_F(FsTest, RenameMovesFiles) {
  ASSERT_EQ(fs_->Mkdir("/a"), Status::kOk);
  ASSERT_EQ(fs_->Mkdir("/b"), Status::kOk);
  ASSERT_EQ(fs_->Create("/a/f"), Status::kOk);
  const auto data = Pattern(100000, 2);
  ASSERT_EQ(Write("/a/f", 0, data), Status::kOk);
  ASSERT_EQ(fs_->Rename("/a/f", "/b/g"), Status::kOk);
  EXPECT_FALSE(fs_->Exists("/a/f"));
  auto [st, got] = Read("/b/g", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(FsTest, SparseWriteAndShortRead) {
  ASSERT_EQ(fs_->Create("/sparse"), Status::kOk);
  const auto data = Pattern(1000, 3);
  ASSERT_EQ(Write("/sparse", 5 * util::MiB, data), Status::kOk);
  EXPECT_EQ(fs_->Stat("/sparse")->size, 5 * util::MiB + 1000);
  // A hole reads back as zeros.
  auto [st, hole] = Read("/sparse", 1 * util::MiB, 1000);
  ASSERT_EQ(st, Status::kOk);
  for (auto b : hole) EXPECT_EQ(b, 0);
  // Reading past EOF truncates.
  auto [st2, tail] = Read("/sparse", 5 * util::MiB, 100000);
  ASSERT_EQ(st2, Status::kOk);
  EXPECT_EQ(tail.size(), 1000u);
  EXPECT_EQ(tail, data);
}

TEST_F(FsTest, OverwriteInMiddle) {
  ASSERT_EQ(fs_->Create("/f"), Status::kOk);
  const auto base = Pattern(2 * util::MiB, 4);
  ASSERT_EQ(Write("/f", 0, base), Status::kOk);
  const auto patch = Pattern(333, 5);
  ASSERT_EQ(Write("/f", 1 * util::MiB - 100, patch), Status::kOk);
  auto [st, got] = Read("/f", 0, base.size());
  ASSERT_EQ(st, Status::kOk);
  util::Bytes expect = base;
  std::copy(patch.begin(), patch.end(),
            expect.begin() + util::MiB - 100);
  EXPECT_EQ(got, expect);
}

TEST_F(FsTest, TruncateShrinksAndFreesChunks) {
  ASSERT_EQ(fs_->Create("/big"), Status::kOk);
  ASSERT_EQ(Write("/big", 0, Pattern(4 * util::MiB, 6)), Status::kOk);
  const auto chunks_before = fs_->AllocatedChunks();
  Status st = Status::kIoError;
  fs_->Truncate("/big", 1 * util::MiB, [&](Status s) { st = s; });
  engine_.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(fs_->Stat("/big")->size, 1 * util::MiB);
  EXPECT_LT(fs_->AllocatedChunks(), chunks_before);
}

// Every data op answers a directory with kIsDirectory and a missing path
// with kNotFound; none of them changes the directory.
TEST_F(FsTest, DataOpsOnADirectoryAnswerIsDirectory) {
  ASSERT_EQ(fs_->Mkdir("/d"), Status::kOk);
  Status truncated = Status::kIoError;
  fs_->Truncate("/d", 0, [&](Status s) { truncated = s; });
  engine_.Run();
  EXPECT_EQ(truncated, Status::kIsDirectory);
  EXPECT_EQ(Write("/d", 0, Pattern(16, 9)), Status::kIsDirectory);
  EXPECT_EQ(Read("/d", 0, 16).first, Status::kIsDirectory);

  Status missing = Status::kIoError;
  fs_->Truncate("/nope", 0, [&](Status s) { missing = s; });
  engine_.Run();
  EXPECT_EQ(missing, Status::kNotFound);
  EXPECT_EQ(fs_->Create("/d/f"), Status::kOk)
      << "the directory must be intact after the refused ops";
}

TEST_F(FsTest, UnlinkReleasesPhysicalSpace) {
  ASSERT_EQ(fs_->Create("/tmp1"), Status::kOk);
  ASSERT_EQ(Write("/tmp1", 0, Pattern(8 * util::MiB, 7)), Status::kOk);
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);
  const auto allocated_before = system_->pool().AllocatedExtents();
  ASSERT_EQ(fs_->Unlink("/tmp1"), Status::kOk);
  engine_.Run();  // let the trims run
  EXPECT_LT(system_->pool().AllocatedExtents(), allocated_before);
}

TEST_F(FsTest, PerFilePolicies) {
  FilePolicy critical;
  critical.cache_replication = 3;
  critical.geo_replicate = true;
  critical.geo_sync = true;
  ASSERT_EQ(fs_->Create("/critical.db", critical), Status::kOk);
  FilePolicy scratch;
  scratch.cache_replication = 1;
  ASSERT_EQ(fs_->Create("/scratch.tmp", scratch), Status::kOk);

  EXPECT_EQ(fs_->Stat("/critical.db")->policy.cache_replication, 3u);
  EXPECT_TRUE(fs_->Stat("/critical.db")->policy.geo_sync);
  EXPECT_EQ(fs_->Stat("/scratch.tmp")->policy.cache_replication, 1u);

  // Policies are dynamic (paper: "dynamically set on a file by file basis").
  FilePolicy upgraded = scratch;
  upgraded.cache_replication = 2;
  ASSERT_EQ(fs_->SetPolicy("/scratch.tmp", upgraded), Status::kOk);
  EXPECT_EQ(fs_->Stat("/scratch.tmp")->policy.cache_replication, 2u);
}

TEST_F(FsTest, QuotaBlocksGrowthButAllowsReuse) {
  FileSystem::Config config;
  config.quota_bytes = 4 * util::MiB;  // 4 chunks
  FileSystem fs(*system_, config);
  ASSERT_EQ(fs.Create("/a"), Status::kOk);
  Status st = Status::kIoError;
  fs.Write("/a", 0, Pattern(3 * util::MiB, 1), [&](Status s) { st = s; });
  engine_.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(fs.UsedBytes(), 3 * util::MiB);
  // A write that would exceed the quota fails cleanly.
  fs.Write("/a", 3 * util::MiB, Pattern(2 * util::MiB, 2),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kNoSpace);
  // Overwrites within allocated space still work.
  fs.Write("/a", 0, Pattern(util::MiB, 3), [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
  // Deleting frees quota for others.
  ASSERT_EQ(fs.Unlink("/a"), Status::kOk);
  ASSERT_EQ(fs.Create("/b"), Status::kOk);
  fs.Write("/b", 0, Pattern(4 * util::MiB, 4), [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
  // Quota can be raised online.
  fs.SetQuota(8 * util::MiB);
  fs.Write("/b", 4 * util::MiB, Pattern(2 * util::MiB, 5),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
}

TEST_F(FsTest, RandomizedFileContentsMatchModel) {
  ASSERT_EQ(fs_->Create("/rand"), Status::kOk);
  util::Rng rng(55);
  const std::uint64_t span = 4 * util::MiB;
  util::Bytes model(span, 0);
  std::uint64_t model_size = 0;
  for (int op = 0; op < 40; ++op) {
    const std::uint64_t off = rng.Below(span - 1);
    const std::uint64_t len =
        rng.Range(1, std::min<std::uint64_t>(span - off, 500000));
    if (rng.Chance(0.6)) {
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      ASSERT_EQ(Write("/rand", off, data), Status::kOk);
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
      model_size = std::max(model_size, off + len);
    } else {
      auto [st, got] = Read("/rand", off, len);
      ASSERT_EQ(st, Status::kOk);
      const std::uint64_t expect_len =
          off >= model_size ? 0 : std::min(len, model_size - off);
      ASSERT_EQ(got.size(), expect_len);
      EXPECT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "op " << op;
    }
  }
}

}  // namespace
}  // namespace nlss::fs
