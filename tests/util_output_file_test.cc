/** @file Tests for util::OutputFile, the one checked file writer. */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "util/output_file.h"

namespace act::util {
namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(OutputFile, WritesPiecesInOrderAndTruncates)
{
    const std::string path = ::testing::TempDir() + "/act_output_file.txt";
    {
        OutputFile file(path);
        file.write("a much longer first version");
        EXPECT_TRUE(file.close());
    }
    OutputFile file(path);
    file.write("abc");
    file.write("");
    file.write("def\n");
    EXPECT_TRUE(file.close());
    EXPECT_EQ(readAll(path), "abcdef\n");
}

TEST(OutputFile, FatalModeNamesThePath)
{
    EXPECT_EXIT(OutputFile("/nonexistent/act/out.txt"),
                ::testing::ExitedWithCode(1),
                "fatal: cannot write '/nonexistent/act/out.txt'");
    EXPECT_EXIT(
        {
            OutputFile file("/dev/full");
            file.write("x");
            file.close();
        },
        ::testing::ExitedWithCode(1), "fatal: failed writing '/dev/full'");
}

TEST(OutputFile, WarnModeWarnsOnceAndReportsTheFailure)
{
    ::testing::internal::CaptureStderr();
    OutputFile missing("/nonexistent/act/out.txt",
                       OutputFile::OnError::Warn);
    missing.write("dropped");
    EXPECT_FALSE(missing.close());

    OutputFile full("/dev/full", OutputFile::OnError::Warn);
    full.write("x");
    full.write("y");
    EXPECT_FALSE(full.close());
    const std::string stderr_text = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(stderr_text.find("warn: cannot write '/nonexistent/act/"
                               "out.txt'"),
              0u)
        << stderr_text;
    const std::size_t full_warning =
        stderr_text.find("warn: failed writing '/dev/full'");
    ASSERT_NE(full_warning, std::string::npos) << stderr_text;
    EXPECT_EQ(stderr_text.find("warn:", full_warning + 1),
              std::string::npos)
        << stderr_text;
}

} // namespace
} // namespace act::util
