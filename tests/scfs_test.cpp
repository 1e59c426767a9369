#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "scfs/scfs.h"

namespace rockfs::scfs {
namespace {

struct ScfsFixture : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 4, 7);
  std::shared_ptr<coord::CoordinationService> coordination =
      std::make_shared<coord::CoordinationService>(clock, 1, 77);
  crypto::Drbg drbg{to_bytes("scfs-test")};
  std::vector<cloud::AccessToken> tokens;
  std::shared_ptr<depsky::DepSkyClient> storage;

  ScfsFixture() {
    for (auto& c : clouds) {
      tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
    }
    depsky::DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.writer = crypto::generate_keypair(drbg);
    storage = std::make_shared<depsky::DepSkyClient>(std::move(cfg), to_bytes("s"));
  }

  Scfs make_fs(SyncMode mode = SyncMode::kBlocking, const std::string& user = "alice") {
    ScfsOptions opts;
    opts.sync_mode = mode;
    opts.cache = std::make_shared<cache::ClientCache>();
    opts.user_id = user;
    return Scfs(storage, tokens, coordination, clock, opts);
  }
};

TEST_F(ScfsFixture, CreateWriteCloseReadBack) {
  auto fs = make_fs();
  auto fd = fs.create("/docs/a.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.write(*fd, 0, to_bytes("hello world")).ok());
  ASSERT_TRUE(fs.close(*fd).ok());

  auto fd2 = fs.open("/docs/a.txt");
  ASSERT_TRUE(fd2.ok());
  auto content = fs.read(*fd2, 0, 1024);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "hello world");
  ASSERT_TRUE(fs.close(*fd2).ok());
}

TEST_F(ScfsFixture, OpenMissingFileFails) {
  auto fs = make_fs();
  EXPECT_EQ(fs.open("/nope").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.stat("/nope").code(), ErrorCode::kNotFound);
}

TEST_F(ScfsFixture, CreateExistingFails) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  ASSERT_TRUE(fd.ok());
  fs.close(*fd).expect("close");
  EXPECT_EQ(fs.create("/f").code(), ErrorCode::kConflict);
}

TEST_F(ScfsFixture, ConsistencyOnClose) {
  // A second client (no shared cache) sees the data only after close.
  auto writer = make_fs();
  auto reader = make_fs();
  auto fd = writer.create("/shared");
  ASSERT_TRUE(fd.ok());
  writer.write(*fd, 0, to_bytes("v1")).expect("w");
  // Before close: reader sees the created-but-empty file (version 0).
  auto st = reader.stat("/shared");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->version, 0u);
  writer.close(*fd).expect("close");
  auto st2 = reader.stat("/shared");
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(st2->version, 1u);
  auto fd2 = reader.open("/shared");
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(to_string(*reader.read(*fd2, 0, 10)), "v1");
  reader.close(*fd2).expect("close");
}

TEST_F(ScfsFixture, PartialReadsAndOffsets) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  ASSERT_TRUE(fd.ok());
  fs.write(*fd, 0, to_bytes("0123456789")).expect("w");
  EXPECT_EQ(to_string(*fs.read(*fd, 3, 4)), "3456");
  EXPECT_EQ(to_string(*fs.read(*fd, 8, 100)), "89");
  EXPECT_TRUE(fs.read(*fd, 100, 1)->empty());
  // Sparse write extends the file with zeros.
  fs.write(*fd, 12, to_bytes("ab")).expect("w2");
  auto all = fs.read(*fd, 0, 100);
  ASSERT_EQ(all->size(), 14u);
  EXPECT_EQ((*all)[10], 0);
  fs.close(*fd).expect("close");
}

TEST_F(ScfsFixture, AppendAndTruncate) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  ASSERT_TRUE(fd.ok());
  fs.append(*fd, to_bytes("abc")).expect("a1");
  fs.append(*fd, to_bytes("def")).expect("a2");
  EXPECT_EQ(to_string(*fs.read(*fd, 0, 10)), "abcdef");
  fs.truncate(*fd, 2).expect("t");
  EXPECT_EQ(to_string(*fs.read(*fd, 0, 10)), "ab");
  fs.close(*fd).expect("close");
  auto st = fs.stat("/f");
  EXPECT_EQ(st->size, 2u);
}

TEST_F(ScfsFixture, CacheHitAvoidsCloudRead) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  fs.write(*fd, 0, Bytes(100'000, 0x42)).expect("w");
  fs.close(*fd).expect("close");

  std::uint64_t downloads_before = 0;
  for (auto& c : clouds) downloads_before += c->traffic().downloaded_bytes();
  auto fd2 = fs.open("/f");  // should come from cache
  ASSERT_TRUE(fd2.ok());
  std::uint64_t downloads_after = 0;
  for (auto& c : clouds) downloads_after += c->traffic().downloaded_bytes();
  EXPECT_EQ(downloads_after, downloads_before);
  fs.close(*fd2).expect("close");
}

TEST_F(ScfsFixture, StaleCacheRefetches) {
  auto writer = make_fs();
  auto other = make_fs();
  auto fd = writer.create("/f");
  writer.write(*fd, 0, to_bytes("v1")).expect("w");
  writer.close(*fd).expect("close");
  // Prime other's cache.
  auto fd2 = other.open("/f");
  other.close(*fd2).expect("close");
  // Writer updates; other's cache is now stale (version mismatch).
  auto fd3 = writer.open("/f");
  writer.write(*fd3, 0, to_bytes("v2")).expect("w2");
  writer.close(*fd3).expect("close");
  auto fd4 = other.open("/f");
  EXPECT_EQ(to_string(*other.read(*fd4, 0, 10)), "v2");
  other.close(*fd4).expect("close");
}

TEST_F(ScfsFixture, UnlinkRemovesFile) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  fs.write(*fd, 0, to_bytes("x")).expect("w");
  fs.close(*fd).expect("close");
  ASSERT_TRUE(fs.unlink("/f").ok());
  EXPECT_EQ(fs.open("/f").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.unlink("/f").code(), ErrorCode::kNotFound);
}

TEST_F(ScfsFixture, RenameMovesContent) {
  auto fs = make_fs();
  auto fd = fs.create("/old");
  fs.write(*fd, 0, to_bytes("content")).expect("w");
  fs.close(*fd).expect("close");
  ASSERT_TRUE(fs.rename("/old", "/new").ok());
  EXPECT_EQ(fs.open("/old").code(), ErrorCode::kNotFound);
  auto fd2 = fs.open("/new");
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(to_string(*fs.read(*fd2, 0, 100)), "content");
  fs.close(*fd2).expect("close");
}

TEST_F(ScfsFixture, RenameOntoExistingFails) {
  auto fs = make_fs();
  fs.close(*fs.create("/a")).expect("a");
  fs.close(*fs.create("/b")).expect("b");
  EXPECT_EQ(fs.rename("/a", "/b").code(), ErrorCode::kConflict);
}

TEST_F(ScfsFixture, ReaddirFiltersByPrefix) {
  auto fs = make_fs();
  for (const char* p : {"/docs/a", "/docs/b", "/pics/c"}) {
    fs.close(*fs.create(p)).expect(p);
  }
  auto docs = fs.readdir("/docs/");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 2u);
  auto all = fs.readdir("/");
  EXPECT_EQ(all->size(), 3u);
}

TEST_F(ScfsFixture, LockingIsExclusive) {
  auto alice = make_fs(SyncMode::kBlocking, "alice");
  auto bob = make_fs(SyncMode::kBlocking, "bob");
  ASSERT_TRUE(alice.lock("/f").ok());
  EXPECT_EQ(bob.lock("/f").code(), ErrorCode::kConflict);
  // Held by someone else: the same answer a contended lock() gives.
  EXPECT_EQ(bob.unlock("/f").code(), ErrorCode::kConflict);
  // kNotFound is reserved for "no such lock".
  EXPECT_EQ(bob.unlock("/nope").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(alice.unlock("/f").ok());
  EXPECT_EQ(alice.unlock("/f").code(), ErrorCode::kNotFound);  // already released
  EXPECT_TRUE(bob.lock("/f").ok());
}

TEST_F(ScfsFixture, DirtyCloseUploadsCleanCloseDoesNot) {
  auto fs = make_fs();
  auto fd = fs.create("/f");
  fs.write(*fd, 0, Bytes(10'000, 1)).expect("w");
  fs.close(*fd).expect("close");
  std::uint64_t up_before = 0;
  for (auto& c : clouds) up_before += c->traffic().uploaded_bytes();
  auto fd2 = fs.open("/f");
  fs.close(*fd2).expect("clean close");  // no writes -> no upload
  std::uint64_t up_after = 0;
  for (auto& c : clouds) up_after += c->traffic().uploaded_bytes();
  EXPECT_EQ(up_after, up_before);
}

TEST_F(ScfsFixture, BlockingCloseChargesUploadTime) {
  auto fs = make_fs(SyncMode::kBlocking);
  auto fd = fs.create("/f");
  fs.write(*fd, 0, Bytes(4 << 20, 0x11)).expect("w");
  const auto before = clock->now_us();
  auto closed = fs.close_timed(*fd);
  ASSERT_TRUE(closed.value.ok());
  const auto elapsed = clock->now_us() - before;
  EXPECT_EQ(elapsed, closed.delay);
  // 4MB over a ~2.6MB/s bottleneck (2MB per cloud after erasure coding):
  // expect on the order of a second, well above a metadata round.
  EXPECT_GT(elapsed, 500'000);
}

TEST_F(ScfsFixture, NonBlockingCloseReturnsQuickly) {
  auto fs = make_fs(SyncMode::kNonBlocking);
  auto fd = fs.create("/f");
  fs.write(*fd, 0, Bytes(4 << 20, 0x11)).expect("w");
  const auto before = clock->now_us();
  auto closed = fs.close_timed(*fd);
  ASSERT_TRUE(closed.value.ok());
  const auto user_visible = clock->now_us() - before;
  // The caller is unblocked long before the upload pipeline finishes...
  EXPECT_LT(user_visible, closed.delay / 4);
  // ...and the reported (recorded) latency covers the background upload.
  EXPECT_GT(fs.background_complete_us(), clock->now_us());
  fs.drain_background();
  EXPECT_EQ(clock->now_us(), fs.background_complete_us());
}

TEST_F(ScfsFixture, NonBlockingUploadsPipeline) {
  auto fs = make_fs(SyncMode::kNonBlocking);
  // Queue three uploads back-to-back; each reported latency includes the
  // queue ahead of it (shared client uplink).
  sim::SimClock::Micros last_reported = 0;
  for (int i = 0; i < 3; ++i) {
    auto fd = fs.create("/f" + std::to_string(i));
    fs.write(*fd, 0, Bytes(1 << 20, 0x22)).expect("w");
    auto closed = fs.close_timed(*fd);
    ASSERT_TRUE(closed.value.ok());
    EXPECT_GT(closed.delay, last_reported / 2);  // grows with queue depth
    last_reported = closed.delay;
  }
}

TEST_F(ScfsFixture, CloseInterceptorRunsAndOverlaps) {
  auto fs = make_fs(SyncMode::kBlocking);
  auto fd = fs.create("/f");
  fs.write(*fd, 0, to_bytes("v1")).expect("w");
  fs.close(*fd).expect("c1");

  bool called = false;
  Bytes seen_old, seen_new;
  fs.set_close_interceptor([&](const std::string& path, const Bytes& old_content,
                               const Bytes& new_content, std::uint64_t version,
                               std::uint64_t epoch) {
    called = true;
    seen_old = old_content;
    seen_new = new_content;
    EXPECT_EQ(path, "/f");
    EXPECT_EQ(version, 2u);
    // No lease held and the path has never been locked: the write carries
    // the epoch observed at open (0).
    EXPECT_EQ(epoch, 0u);
    return sim::Timed<Status>{Status::Ok(), 1'000};
  });
  auto fd2 = fs.open("/f");
  fs.write(*fd2, 2, to_bytes("+v2")).expect("w2");
  called = false;
  fs.close(*fd2).expect("c2");
  EXPECT_TRUE(called);
  EXPECT_EQ(to_string(seen_old), "v1");
  EXPECT_EQ(to_string(seen_new), "v1+v2");
}

TEST_F(ScfsFixture, BadFdErrors) {
  auto fs = make_fs();
  EXPECT_EQ(fs.read(999, 0, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.write(999, 0, to_bytes("x")).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.close(999).code(), ErrorCode::kInvalidArgument);
}

TEST_F(ScfsFixture, SurvivesOneCloudOutage) {
  auto fs = make_fs();
  clouds[3]->set_available(false);
  auto fd = fs.create("/f");
  fs.write(*fd, 0, to_bytes("despite outage")).expect("w");
  ASSERT_TRUE(fs.close(*fd).ok());
  fs.clear_cache();
  auto fd2 = fs.open("/f");
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(to_string(*fs.read(*fd2, 0, 100)), "despite outage");
  fs.close(*fd2).expect("close");
}

}  // namespace
}  // namespace rockfs::scfs
