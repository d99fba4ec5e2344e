#include "farm/artifact_cache.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "support/check.h"
#include "support/durable.h"

namespace omx::farm {

namespace {

constexpr char kMagic[8] = {'O', 'M', 'X', 'A', 'R', 'T', '1', '\0'};
constexpr std::uint32_t kVersion = 1;

/// Fixed-size entry header; the payload follows immediately.
struct EntryHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t payload_size;
  std::uint64_t checksum;  // FNV-1a over the payload bytes
};
static_assert(sizeof(EntryHeader) == 32, "on-disk header layout");

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

Blob::Blob(Blob&& other) noexcept
    : map_(other.map_),
      map_size_(other.map_size_),
      payload_(other.payload_),
      payload_size_(other.payload_size_) {
  other.map_ = nullptr;
  other.map_size_ = 0;
  other.payload_ = nullptr;
  other.payload_size_ = 0;
}

Blob& Blob::operator=(Blob&& other) noexcept {
  if (this != &other) {
    this->~Blob();
    new (this) Blob(std::move(other));
  }
  return *this;
}

Blob::~Blob() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

ArtifactCache::ArtifactCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OMX_REQUIRE(!ec, "artifact cache: cannot create directory " + dir_ + ": " +
                       ec.message());
}

std::string ArtifactCache::entry_path(const std::string& key) const {
  return dir_ + "/" + key + ".art";
}

bool ArtifactCache::put(const std::string& key,
                        std::span<const std::uint8_t> payload) {
  EntryHeader h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version = kVersion;
  h.payload_size = payload.size();
  h.checksum = fnv1a(payload);

  std::string bytes(reinterpret_cast<const char*>(&h), sizeof h);
  bytes.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  // publish_atomic fsyncs before the rename: otherwise the rename can
  // become durable before the data and a power cut publishes a hole-filled
  // entry. (The checksum would still catch it, but "detected corruption" is
  // strictly worse than "no corruption".)
  if (!publish_atomic(entry_path(key), bytes)) {
    std::fprintf(stderr, "artifact cache: cannot publish %s: %s\n",
                 entry_path(key).c_str(), std::strerror(errno));
    return false;
  }
  evict_to_cap();
  return true;
}

std::size_t ArtifactCache::evict_to_cap() {
  if (max_bytes_ == 0) return 0;
  struct Candidate {
    std::string path;
    std::uint64_t size;
    struct timespec atime;
  };
  std::vector<Candidate> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& file : std::filesystem::directory_iterator(dir_, ec)) {
    if (!file.is_regular_file() || file.path().extension() != ".art") continue;
    struct stat st{};
    if (::stat(file.path().c_str(), &st) != 0) continue;
    entries.push_back(Candidate{file.path().string(),
                                static_cast<std::uint64_t>(st.st_size),
                                st.st_atim});
    total += static_cast<std::uint64_t>(st.st_size);
  }
  if (total <= max_bytes_) return 0;
  // Oldest atime first = least recently used: get() bumps atime on every
  // hit, so the ordering tracks real use even on relatime/noatime mounts.
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.atime.tv_sec != b.atime.tv_sec)
                return a.atime.tv_sec < b.atime.tv_sec;
              return a.atime.tv_nsec < b.atime.tv_nsec;
            });
  std::size_t evicted = 0;
  for (const Candidate& entry : entries) {
    if (total <= max_bytes_) break;
    // unlink, not truncate: a concurrent reader that already mmap'd the
    // entry keeps its mapping, and one that loses the race gets ENOENT —
    // a plain miss. A torn entry meets its checksum check first either way.
    if (::unlink(entry.path.c_str()) != 0) continue;
    total -= entry.size;
    ++evictions_;
    ++evicted;
  }
  return evicted;
}

std::optional<Blob> ArtifactCache::get(const std::string& key) {
  const std::string path = entry_path(key);
  FdCloser fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) {
    ++misses_;
    return std::nullopt;
  }
  struct stat st{};
  const auto corrupt_miss = [&](const char* why) -> std::optional<Blob> {
    std::fprintf(stderr,
                 "artifact cache: %s: %s — treating as a miss and "
                 "removing the entry\n",
                 path.c_str(), why);
    ::unlink(path.c_str());
    ++corrupt_;
    ++misses_;
    return std::nullopt;
  };
  if (::fstat(fd.fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(EntryHeader)) {
    return corrupt_miss("too short to hold an entry header");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
  if (map == MAP_FAILED) {
    ++misses_;
    return std::nullopt;
  }
  Blob blob;
  blob.map_ = map;
  blob.map_size_ = size;
  const auto* h = static_cast<const EntryHeader*>(map);
  if (std::memcmp(h->magic, kMagic, sizeof kMagic) != 0)
    return corrupt_miss("bad magic");
  if (h->version != kVersion) return corrupt_miss("unknown format version");
  if (h->payload_size != size - sizeof(EntryHeader))
    return corrupt_miss("payload size disagrees with file size (torn write)");
  blob.payload_ = static_cast<const std::uint8_t*>(map) + sizeof(EntryHeader);
  blob.payload_size_ = static_cast<std::size_t>(h->payload_size);
  if (fnv1a(blob.bytes()) != h->checksum)
    return corrupt_miss("payload checksum mismatch");
  // Bump atime explicitly: the LRU eviction order must reflect real hits,
  // and relatime (the default on most mounts) only updates atime once a
  // day — an explicit utimensat makes every hit count.
  const struct timespec times[2] = {{0, UTIME_NOW}, {0, UTIME_OMIT}};
  (void)::utimensat(AT_FDCWD, path.c_str(), times, 0);
  ++hits_;
  return blob;
}

bool ArtifactCache::corrupt_entry_for_test(const std::string& key) {
  const std::string path = entry_path(key);
  FdCloser fd{::open(path.c_str(), O_RDWR)};
  if (fd.fd < 0) return false;
  std::uint8_t byte = 0;
  if (::pread(fd.fd, &byte, 1, sizeof(EntryHeader)) != 1) return false;
  byte ^= 0xFF;
  return ::pwrite(fd.fd, &byte, 1, sizeof(EntryHeader)) == 1;
}

ArtifactCache* ArtifactCache::process_cache() {
  static std::once_flag once;
  static std::unique_ptr<ArtifactCache> cache;
  std::call_once(once, [] {
    const char* dir = std::getenv("OMX_ARTIFACT_CACHE");
    if (dir == nullptr || dir[0] == '\0') return;
    std::uint64_t max_bytes = 0;
    if (const char* cap = std::getenv("OMX_ARTIFACT_CACHE_MAX_MB")) {
      const long long mb = std::strtoll(cap, nullptr, 10);
      if (mb > 0) max_bytes = static_cast<std::uint64_t>(mb) * 1024 * 1024;
    }
    try {
      cache = std::make_unique<ArtifactCache>(dir, max_bytes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "artifact cache: disabled: %s\n", e.what());
    }
  });
  return cache.get();
}

}  // namespace omx::farm
