#ifndef ROTIND_TESTS_TESTING_FIFO_H_
#define ROTIND_TESTS_TESTING_FIFO_H_

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/io/bytes.h"
#include "tests/testing/fault_injection.h"

namespace rotind {
namespace testing {

/// Serves `content` to one reader through a FIFO, the way a shell process
/// substitution (`--db <(cat db.csv)`) does, and returns what `read(path)`
/// made of it. The writer thread blocks in open until the reader opens the
/// FIFO, so `read` must open the path exactly once. A reader that stops
/// before EOF fails the writer's check (SIGPIPE is ignored, so the write
/// reports EPIPE instead of ending the test process).
template <typename Read>
auto ReadThroughFifo(const std::string& content, Read read) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string path = WriteTempFile("rotind.fifo", "");
  std::remove(path.c_str());
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
  std::thread writer([&path, &content] {
    EXPECT_TRUE(WriteStringToFile(path, content).ok()) << path;
  });
  auto result = read(path);
  writer.join();
  std::remove(path.c_str());
  return result;
}

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_FIFO_H_
