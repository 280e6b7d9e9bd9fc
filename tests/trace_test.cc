#include "workload/trace.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(ParseTraceTest, ParsesPagesAndTypes) {
  auto refs = ParseTrace("1 R\n2 W\n3\n");
  ASSERT_TRUE(refs.ok()) << refs.status().ToString();
  ASSERT_EQ(refs->size(), 3u);
  EXPECT_EQ((*refs)[0].page, 1u);
  EXPECT_EQ((*refs)[0].type, AccessType::kRead);
  EXPECT_EQ((*refs)[1].page, 2u);
  EXPECT_EQ((*refs)[1].type, AccessType::kWrite);
  EXPECT_EQ((*refs)[2].page, 3u);
  EXPECT_EQ((*refs)[2].type, AccessType::kRead);
}

TEST(ParseTraceTest, SkipsCommentsAndBlanks) {
  auto refs = ParseTrace("# header\n\n  \n5 r\n# trailing\n7 w\n");
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 2u);
  EXPECT_EQ((*refs)[0].page, 5u);
  EXPECT_EQ((*refs)[1].page, 7u);
  EXPECT_EQ((*refs)[1].type, AccessType::kWrite);
}

TEST(ParseTraceTest, ParsesProcessIds) {
  auto refs = ParseTrace("1 R 3\n2 W 0\n9 R\n");
  ASSERT_TRUE(refs.ok()) << refs.status().ToString();
  ASSERT_EQ(refs->size(), 3u);
  EXPECT_EQ((*refs)[0].process, 3u);
  EXPECT_EQ((*refs)[1].process, 0u);
  EXPECT_EQ((*refs)[2].process, 0u);  // Default when omitted.
}

TEST(ParseTraceTest, RejectsBadProcessId) {
  auto refs = ParseTrace("1 R xyz\n");
  ASSERT_FALSE(refs.ok());
  EXPECT_EQ(refs.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseTraceTest, RejectsBadAccessType) {
  auto refs = ParseTrace("1 X\n");
  ASSERT_FALSE(refs.ok());
  EXPECT_EQ(refs.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseTraceTest, RejectsNonNumericPage) {
  auto refs = ParseTrace("abc R\n");
  ASSERT_FALSE(refs.ok());
}

TEST(ParseTraceTest, RejectsEmptyTrace) {
  auto refs = ParseTrace("# nothing here\n");
  ASSERT_FALSE(refs.ok());
}

TEST(TraceWorkloadTest, ReplaysAndWraps) {
  TraceWorkload gen({{.page = 1, .type = AccessType::kRead},
                     {.page = 5, .type = AccessType::kWrite},
                     {.page = 3, .type = AccessType::kRead}});
  EXPECT_EQ(gen.NumPages(), 6u);  // Max page id + 1.
  EXPECT_EQ(gen.size(), 3u);
  EXPECT_EQ(gen.Next().page, 1u);
  EXPECT_EQ(gen.Next().page, 5u);
  EXPECT_FALSE(gen.exhausted());
  EXPECT_EQ(gen.Next().page, 3u);
  EXPECT_TRUE(gen.exhausted());
  EXPECT_EQ(gen.Next().page, 1u);  // Wraps.
  gen.Reset();
  EXPECT_EQ(gen.Next().page, 1u);
  EXPECT_FALSE(gen.exhausted());
}

TEST(TraceFileTest, RoundTripsThroughDisk) {
  std::string path = ::testing::TempDir() + "/lruk_trace_roundtrip.txt";
  std::vector<AccessRecord> refs = {{10, 1, AccessType::kRead},
                                    {20, 2, AccessType::kWrite},
                                    {10, 0, AccessType::kRead}};
  ASSERT_TRUE(WriteTraceFile(path, refs).ok());
  auto loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ((*loaded)[i].page, refs[i].page);
    EXPECT_EQ((*loaded)[i].type, refs[i].type);
    EXPECT_EQ((*loaded)[i].process, refs[i].process);
  }
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileFailsCleanly) {
  auto loaded = ReadTraceFile("/nonexistent/dir/trace.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lruk
