/**
 * @file
 * Per-test scratch file names.
 *
 * ctest runs every gtest case as its own process, many at once under
 * `ctest -j`, so a fixed name under TempDir() is shared by processes
 * that race on it. A name built from the running test's suite and
 * name plus the process id is private to one test process.
 */

#ifndef OCOR_TESTS_TEMP_PATH_HH
#define OCOR_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

/** TempDir() path unique to the running test and process, ending
 * in @p suffix (e.g. ".tsv"). */
inline std::string
testTempPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("ocor_") + info->test_suite_name() +
                       "_" + info->name() + "_" +
                       std::to_string(::getpid()) + suffix;
    // Parameterized names carry '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name;
}

#endif // OCOR_TESTS_TEMP_PATH_HH
