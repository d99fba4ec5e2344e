#include "support/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>

namespace omx {

bool write_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, p, left);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    p += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  return true;
}

namespace {

bool write_and_sync(const std::string& path, const std::string& data,
                    int flags) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags,
                        0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data) && ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

}  // namespace

bool append_line_durably(const std::string& path, const std::string& line) {
  return write_and_sync(path, line + "\n", O_APPEND);
}

bool publish_atomic(const std::string& path, const std::string& content) {
  // Per-process temp name: concurrent publishers of one path (workers
  // filling a shared artifact cache) never write into each other's file.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  if (!write_and_sync(tmp, content, O_TRUNC) ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

}  // namespace omx
