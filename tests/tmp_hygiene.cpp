// A gtest global environment for the test binaries whose tests create
// sockets or snapshot files under /tmp: the run fails when it leaves a
// /tmp/rsmem-* entry named with its own pid ("-<pid>-" or "-<pid>.")
// behind. CTest runs each discovered test as its own process, so a failure
// names the test that leaked. An entry that was already there when the
// process started was left by an earlier process with the same pid; it
// counts only if this run replaced or rewrote it.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <utility>

namespace {

// Inode and modification time (ns) of each /tmp entry this pid names.
using Stamps = std::map<std::string, std::pair<ino_t, long long>>;

Stamps pid_entries() {
  const std::string pid = std::to_string(::getpid());
  const std::string inner = "-" + pid + "-";
  const std::string last = "-" + pid + ".";
  Stamps found;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/tmp", error)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("rsmem-", 0) != 0) continue;
    if (name.find(inner) == std::string::npos &&
        name.find(last) == std::string::npos) {
      continue;
    }
    struct stat st {};
    if (::lstat(entry.path().c_str(), &st) != 0) continue;
    found[name] = {st.st_ino, st.st_mtim.tv_sec * 1'000'000'000LL +
                                  st.st_mtim.tv_nsec};
  }
  return found;
}

class TmpHygiene : public ::testing::Environment {
 public:
  void SetUp() override { before_ = pid_entries(); }

  void TearDown() override {
    std::string leaked;
    for (const auto& [name, stamp] : pid_entries()) {
      const auto it = before_.find(name);
      if (it == before_.end() || it->second != stamp) {
        leaked += " /tmp/" + name;
      }
    }
    EXPECT_TRUE(leaked.empty()) << "left behind in /tmp:" << leaked;
  }

 private:
  Stamps before_;
};

[[maybe_unused]] const ::testing::Environment* const kTmpHygiene =
    ::testing::AddGlobalTestEnvironment(new TmpHygiene);

}  // namespace
