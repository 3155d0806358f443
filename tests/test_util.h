#ifndef FAE_TESTS_TEST_UTIL_H_
#define FAE_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace fae {

/// Path of a scratch file called `name` in this test process's own
/// directory: `<temp dir>/fae_test_<pid>/`, emptied on first use and
/// removed with its contents at exit. gtest_discover_tests runs every test
/// as its own process, so tests running side by side under `ctest -j`
/// never share a file, even when they pick the same name.
inline std::string TempPath(const std::string& name) {
  struct ScratchDir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("fae_test_" + std::to_string(::getpid()));
    ScratchDir() {
      std::filesystem::remove_all(path);  // left by a reused pid's crash
      std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ScratchDir dir;
  return (dir.path / name).string();
}

}  // namespace fae

#endif  // FAE_TESTS_TEST_UTIL_H_
