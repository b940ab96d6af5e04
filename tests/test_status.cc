/**
 * @file
 * Unit tests for the recoverable-error subsystem: Status, Expected,
 * context chaining, and the scoped fatal-to-throw guard.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/status.hh"

namespace ccm
{
namespace
{

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::Ok);
    EXPECT_EQ(s.message(), "");
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, FactoriesSetCodeAndMessage)
{
    Status s = Status::badConfig("size must be ", 64);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::BadConfig);
    EXPECT_EQ(s.message(), "size must be 64");

    EXPECT_EQ(Status::corruptTrace("x").code(),
              ErrorCode::CorruptTrace);
    EXPECT_EQ(Status::ioError("x").code(), ErrorCode::IoError);
    EXPECT_EQ(Status::notFound("x").code(), ErrorCode::NotFound);
    EXPECT_EQ(Status::unsupported("x").code(),
              ErrorCode::Unsupported);
    EXPECT_EQ(Status::internal("x").code(), ErrorCode::Internal);
    EXPECT_EQ(Status::aborted("x").code(), ErrorCode::Aborted);
    EXPECT_EQ(Status::unavailable("x").code(),
              ErrorCode::Unavailable);
}

TEST(Status, CodeNamesAreStable)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::BadConfig), "bad-config");
    EXPECT_STREQ(errorCodeName(ErrorCode::CorruptTrace),
                 "corrupt-trace");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io-error");
    EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not-found");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unsupported),
                 "unsupported");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
    EXPECT_STREQ(errorCodeName(ErrorCode::Aborted), "aborted");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unavailable),
                 "unavailable");
}

TEST(Status, ToStringCombinesCodeAndMessage)
{
    Status s = Status::corruptTrace("bad magic");
    EXPECT_EQ(s.toString(), "corrupt-trace: bad magic");
}

TEST(Status, ContextChainsOutermostFirst)
{
    Status s = Status::corruptTrace("bad trace magic in gcc.bin");
    Status wrapped =
        s.withContext("workload 'gcc'").withContext("loading suite");
    EXPECT_EQ(wrapped.code(), ErrorCode::CorruptTrace);
    EXPECT_EQ(wrapped.message(),
              "loading suite: workload 'gcc': "
              "bad trace magic in gcc.bin");
}

TEST(Status, ContextOnOkIsNoop)
{
    Status s = Status::ok().withContext("ctx");
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(s.message(), "");
}

TEST(Expected, HoldsValue)
{
    Expected<int> e(42);
    ASSERT_TRUE(e.ok());
    EXPECT_TRUE(e.status().isOk());
    EXPECT_EQ(e.value(), 42);
    EXPECT_EQ(e.valueOr(7), 42);
}

TEST(Expected, HoldsError)
{
    Expected<int> e(Status::notFound("no such thing"));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(e.valueOr(7), 7);
}

TEST(Expected, TakeMovesValueOut)
{
    Expected<std::unique_ptr<int>> e(std::make_unique<int>(5));
    ASSERT_TRUE(e.ok());
    std::unique_ptr<int> p = e.take();
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, 5);
}

TEST(Expected, ValueOnErrorPanics)
{
    Expected<int> e(Status::internal("boom"));
    EXPECT_DEATH(e.value(), "Expected::value");
}

TEST(FatalIfError, DiesWithMessage)
{
    EXPECT_DEATH(fatalIfError(Status::badConfig("cannot cope")),
                 "cannot cope");
    fatalIfError(Status::ok()); // no-op
}

} // namespace
} // namespace ccm
