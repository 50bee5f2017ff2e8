// One namespace, two speeds: fs::FileSystem (synchronous, controller-local)
// and meta::MetaService (DES-timed, sharded) must give the same answer to
// every namespace op and end with the same tree.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "meta/service.h"
#include "net/fabric.h"
#include "sim/engine.h"

namespace nlss {
namespace {

enum class Op { kMkdir, kCreate, kUnlink, kRmdir, kRename, kList };

struct Step {
  Op op;
  std::string path;
  std::string to;  // rename target
  meta::Status want = meta::Status::kOk;
  std::vector<std::string> names = {};  // list: expected entries
};

/// A FileSystem on a small system, next to a MetaService on its own
/// engine; each op runs through both.
class Namespaces {
 public:
  Namespaces() {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    fabric_ = std::make_unique<net::Fabric>(fs_engine_);
    system_ = std::make_unique<controller::StorageSystem>(fs_engine_,
                                                          *fabric_, config);
    fs_ = std::make_unique<fs::FileSystem>(*system_);
    meta::ServiceConfig mc;
    mc.shards = 4;
    meta_ = std::make_unique<meta::MetaService>(meta_engine_, mc);
  }

  fs::Status FsRun(const Step& s) {
    switch (s.op) {
      case Op::kMkdir: return fs_->Mkdir(s.path);
      case Op::kCreate: return fs_->Create(s.path);
      case Op::kUnlink: return fs_->Unlink(s.path);
      case Op::kRmdir: return fs_->Rmdir(s.path);
      case Op::kRename: return fs_->Rename(s.path, s.to);
      case Op::kList: return fs::Status::kOk;
    }
    return fs::Status::kIoError;
  }

  meta::Status MetaRun(const Step& s) {
    meta::Status st = meta::Status::kOk;
    const auto set = [&st](meta::Status got) { st = got; };
    switch (s.op) {
      case Op::kMkdir: meta_->Mkdir(s.path, set); break;
      case Op::kCreate:
        meta_->Create(s.path, [&st](meta::Status got, meta::Ino) {
          st = got;
        });
        break;
      case Op::kUnlink: meta_->Unlink(s.path, set); break;
      case Op::kRmdir: meta_->Rmdir(s.path, set); break;
      case Op::kRename: meta_->Rename(s.path, s.to, set); break;
      case Op::kList: break;
    }
    meta_engine_.Run();
    return st;
  }

  std::vector<std::string> MetaList(const std::string& path) {
    std::vector<std::string> names;
    meta_->List(path, [&names](meta::Status, std::vector<std::string> got) {
      names = std::move(got);
    });
    meta_engine_.Run();
    return names;
  }

  /// Every path in the tree, directories marked with a trailing '/'.
  std::vector<std::string> FsTree(const std::string& dir = "") {
    std::vector<std::string> out;
    for (const std::string& name : fs_->List(dir.empty() ? "/" : dir)) {
      const std::string path = dir + "/" + name;
      if (fs_->Stat(path)->type == fs::FileType::kDirectory) {
        out.push_back(path + "/");
        for (std::string& p : FsTree(path)) out.push_back(std::move(p));
      } else {
        out.push_back(path);
      }
    }
    return out;
  }

  std::vector<std::string> MetaTree(const std::string& dir = "") {
    std::vector<std::pair<std::string, meta::Dentry>> rows;
    meta_->RangeScan(
        dir.empty() ? "/" : dir, "", 0,
        [&rows](meta::Status,
                std::vector<std::pair<std::string, meta::Dentry>> got) {
          rows = std::move(got);
        });
    meta_engine_.Run();
    std::vector<std::string> out;
    for (const auto& [name, d] : rows) {
      const std::string path = dir + "/" + name;
      if (d.is_dir) {
        out.push_back(path + "/");
        for (std::string& p : MetaTree(path)) out.push_back(std::move(p));
      } else {
        out.push_back(path);
      }
    }
    return out;
  }

  fs::FileSystem& fs() { return *fs_; }

 private:
  sim::Engine fs_engine_;
  sim::Engine meta_engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<fs::FileSystem> fs_;
  std::unique_ptr<meta::MetaService> meta_;
};

const char* Name(meta::Status st) { return meta::StatusName(st); }

TEST(NamespaceConformance, FsAndMetaServiceAgreeStepByStep) {
  using S = meta::Status;
  const std::vector<Step> script = {
      {Op::kMkdir, "/a", "", S::kOk},
      {Op::kMkdir, "/a", "", S::kExists},
      {Op::kMkdir, "/a/b", "", S::kOk},
      {Op::kCreate, "/a/b/f", "", S::kOk},
      {Op::kCreate, "/a/b/f", "", S::kExists},
      {Op::kCreate, "//a///b//g/", "", S::kOk},
      {Op::kMkdir, "/missing/x", "", S::kNotFound},
      {Op::kCreate, "/a/b/f/x", "", S::kNotDirectory},
      {Op::kMkdir, "/", "", S::kInvalidArgument},
      {Op::kCreate, "/", "", S::kInvalidArgument},
      {Op::kUnlink, "/a/b", "", S::kIsDirectory},
      {Op::kRmdir, "/a/b/f", "", S::kNotDirectory},
      {Op::kRmdir, "/a/b", "", S::kNotEmpty},
      {Op::kRmdir, "/a/nope", "", S::kNotFound},
      {Op::kUnlink, "/a/nope", "", S::kNotFound},
      {Op::kList, "/a/b", "", S::kOk, {"f", "g"}},
      {Op::kRename, "/a/b/f", "/a/b/f", S::kOk},
      {Op::kRename, "/a/b/f", "/a/h", S::kOk},
      {Op::kRename, "/a/nope", "/a/i", S::kNotFound},
      {Op::kRename, "/a/h", "/missing/h", S::kNotFound},
      {Op::kRename, "/", "/z", S::kInvalidArgument},
      {Op::kMkdir, "/c", "", S::kOk},
      {Op::kCreate, "/c/x", "", S::kOk},
      {Op::kRename, "/a/h", "/c/x", S::kExists},
      {Op::kRename, "/c", "/a/c", S::kOk},
      {Op::kList, "/", "", S::kOk, {"a"}},
      {Op::kList, "/a", "", S::kOk, {"b", "c", "h"}},
      {Op::kUnlink, "/a/b/g", "", S::kOk},
      {Op::kRmdir, "/a/b", "", S::kOk},
      {Op::kUnlink, "/a/c/x", "", S::kOk},
      {Op::kCreate, "/a/c/y", "", S::kOk},
      {Op::kList, "/a/c", "", S::kOk, {"y"}},
      {Op::kList, "/a/h", "", S::kOk, {}},
  };

  Namespaces ns;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& s = script[i];
    SCOPED_TRACE("step " + std::to_string(i) + ": " + s.path + " " + s.to);
    if (s.op == Op::kList) {
      EXPECT_EQ(ns.fs().List(s.path), s.names);
      EXPECT_EQ(ns.MetaList(s.path), s.names);
      continue;
    }
    const fs::Status fs_st = ns.FsRun(s);
    const meta::Status meta_st = ns.MetaRun(s);
    EXPECT_STREQ(Name(meta_st), Name(s.want));
    EXPECT_EQ(static_cast<int>(fs_st), static_cast<int>(meta_st))
        << "fs and meta disagree; meta says " << Name(meta_st);
  }

  const std::vector<std::string> tree = {"/a/", "/a/c/", "/a/c/y", "/a/h"};
  EXPECT_EQ(ns.FsTree(), tree);
  EXPECT_EQ(ns.MetaTree(), tree);
}

// A directory renamed into its own subtree would become a cycle no path
// reaches; both namespaces must refuse it and keep the tree intact.
TEST(NamespaceConformance, RenameIntoOwnSubtreeIsRejected) {
  using S = meta::Status;
  Namespaces ns;
  for (const char* dir : {"/a", "/a/b", "/a/b/c"}) {
    ASSERT_EQ(ns.fs().Mkdir(dir), fs::Status::kOk);
    ASSERT_EQ(ns.MetaRun({Op::kMkdir, dir, ""}), S::kOk);
  }
  ASSERT_EQ(ns.fs().Create("/a/b/c/data"), fs::Status::kOk);
  ASSERT_EQ(ns.MetaRun({Op::kCreate, "/a/b/c/data", ""}), S::kOk);

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"/a", "/a/x"},  {"/a", "/a/b/c/d"}, {"/a/b", "/a/b/c/d"},
      {"/a/b", "/a/b/x"},
  };
  for (const auto& [from, to] : bad) {
    SCOPED_TRACE(from + " -> " + to);
    EXPECT_EQ(ns.fs().Rename(from, to), fs::Status::kInvalidArgument);
    EXPECT_STREQ(Name(ns.MetaRun({Op::kRename, from, to})),
                 Name(S::kInvalidArgument));
  }

  const std::vector<std::string> tree = {"/a/", "/a/b/", "/a/b/c/",
                                         "/a/b/c/data"};
  EXPECT_EQ(ns.FsTree(), tree);
  EXPECT_EQ(ns.MetaTree(), tree);

  // Moving a directory up or sideways is still fine.
  EXPECT_EQ(ns.fs().Rename("/a/b/c", "/c"), fs::Status::kOk);
  EXPECT_EQ(ns.MetaRun({Op::kRename, "/a/b/c", "/c"}), S::kOk);
  EXPECT_EQ(ns.fs().Rename("/a", "/c/a"), fs::Status::kOk);
  EXPECT_EQ(ns.MetaRun({Op::kRename, "/a", "/c/a"}), S::kOk);
  const std::vector<std::string> moved = {"/c/", "/c/a/", "/c/a/b/",
                                          "/c/data"};
  EXPECT_EQ(ns.FsTree(), moved);
  EXPECT_EQ(ns.MetaTree(), moved);
}

}  // namespace
}  // namespace nlss
