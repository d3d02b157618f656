#include "data/log_format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace rtrec {
namespace {

UserAction SampleAction() {
  UserAction a;
  a.user = 12345;
  a.video = 678;
  a.type = ActionType::kPlayTime;
  a.view_fraction = 0.8125;
  a.time = 1466000000123;
  return a;
}

TEST(LogFormatTest, TsvRoundTrip) {
  const UserAction original = SampleAction();
  auto parsed = ActionFromTsv(ActionToTsv(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->user, original.user);
  EXPECT_EQ(parsed->video, original.video);
  EXPECT_EQ(parsed->type, original.type);
  EXPECT_NEAR(parsed->view_fraction, original.view_fraction, 1e-6);
  EXPECT_EQ(parsed->time, original.time);
}

TEST(LogFormatTest, AllActionTypesRoundTrip) {
  for (int i = 0; i < kNumActionTypes; ++i) {
    UserAction a = SampleAction();
    a.type = static_cast<ActionType>(i);
    auto parsed = ActionFromTsv(ActionToTsv(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->type, a.type);
  }
}

TEST(LogFormatTest, RejectsMalformedLines) {
  EXPECT_FALSE(ActionFromTsv("").ok());
  EXPECT_FALSE(ActionFromTsv("1\t2\tclick").ok());            // Too few.
  EXPECT_FALSE(ActionFromTsv("1\t2\tclick\t0\t0\textra").ok());
  EXPECT_FALSE(ActionFromTsv("x\t2\tclick\t0\t0").ok());      // Bad user.
  EXPECT_FALSE(ActionFromTsv("1\t2\tbogus\t0\t0").ok());      // Bad type.
  EXPECT_FALSE(ActionFromTsv("1\t2\tclick\tzz\t0").ok());     // Bad frac.
  EXPECT_FALSE(ActionFromTsv("1\t2\tclick\t0\tzz").ok());     // Bad time.
}

TEST(LogFormatTest, ToleratesSurroundingWhitespace) {
  auto parsed = ActionFromTsv(" 1 \t 2 \t click \t 0.5 \t 99 ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, 1u);
  EXPECT_EQ(parsed->type, ActionType::kClick);
}

class LogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rtrec_log_test_" + std::to_string(::getpid()) + ".tsv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(LogFileTest, WriteReadRoundTrip) {
  std::vector<UserAction> actions;
  for (int i = 0; i < 50; ++i) {
    UserAction a = SampleAction();
    a.user = static_cast<UserId>(i);
    a.time = i * 1000;
    actions.push_back(a);
  }
  ASSERT_TRUE(WriteActionLog(path_.string(), actions).ok());
  auto loaded = ReadActionLog(path_.string());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ((*loaded)[i].user, actions[i].user);
    EXPECT_EQ((*loaded)[i].time, actions[i].time);
  }
}

TEST_F(LogFileTest, MissingFileIsNotFound) {
  EXPECT_TRUE(ReadActionLog("/nonexistent/dir/log.tsv").status()
                  .IsNotFound());
}

TEST_F(LogFileTest, MalformedLineFailsUnlessSkipped) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1\t2\tclick\t0.0\t100\n", f);
    std::fputs("garbage line\n", f);
    std::fputs("3\t4\tplay\t0.0\t200\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadActionLog(path_.string()).ok());
  auto skipped = ReadActionLog(path_.string(), /*skip_malformed=*/true);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->size(), 2u);
}

TEST_F(LogFileTest, BlankLinesIgnored) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("\n1\t2\tclick\t0.0\t100\n\n\n", f);
    std::fclose(f);
  }
  auto loaded = ReadActionLog(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

}  // namespace
}  // namespace rtrec
