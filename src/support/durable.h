// Durable file writes for state that must survive a crash at any instant.
//
//   write_all            write(2) until every byte is out (EINTR-safe).
//   append_line_durably  one write(2) of line + '\n', then fsync: the record
//                        is on disk before the caller advances its state
//                        machine. A kill mid-write leaves at most a torn
//                        final line, which the readers drop.
//   publish_atomic       write a per-process temp file, fsync it, rename it
//                        over the target, fsync the directory: a reader
//                        sees the old content or the new, never a mix, and
//                        the rename itself survives a power loss.
#pragma once

#include <string>
#include <string_view>

namespace omx {

bool write_all(int fd, std::string_view data);

bool append_line_durably(const std::string& path, const std::string& line);

bool publish_atomic(const std::string& path, const std::string& content);

}  // namespace omx
