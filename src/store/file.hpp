// Fault-injectable file I/O for the durable log store.
//
// Every byte the store puts on disk goes through store::File, which is a
// thin positional-I/O wrapper over a POSIX fd with three properties the
// store's crash-safety story depends on:
//
//  * Typed failures — every syscall error surfaces as IoError carrying the
//    operation and errno, never a silent short count. Callers either get
//    the full transfer or an exception.
//  * Positional writes — pwrite(2) only. The store tracks its own logical
//    tail offset, so a failed (possibly partial) write leaves the logical
//    state untouched and the next append simply overwrites the garbage.
//  * Fault points — `store.file.short_write`, `store.file.enospc` and
//    `store.file.fsync` (see docs/FAULTS.md) let tests make writes tear and
//    fsyncs fail on demand, deterministically. A fired short-write really
//    does put half the bytes on disk before throwing, so recovery tests
//    exercise genuine torn tails, not simulated ones.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lzss::store {

/// A file-I/O syscall failed (or a fault point made it fail).
class IoError : public std::runtime_error {
 public:
  IoError(std::string op, std::string path, int err);

  [[nodiscard]] const std::string& op() const noexcept { return op_; }
  [[nodiscard]] int error_code() const noexcept { return err_; }

 private:
  std::string op_;
  int err_;
};

class File {
 public:
  File() = default;
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  /// Creates @p path (truncating an existing file) read-write.
  [[nodiscard]] static File create(const std::string& path);
  /// Opens an existing file read-write (appends go through pwrite).
  [[nodiscard]] static File open_rw(const std::string& path);
  /// Opens an existing file read-only.
  [[nodiscard]] static File open_ro(const std::string& path);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t size() const;

  /// Writes all of @p bytes at @p offset or throws IoError. Fault points:
  /// `store.file.enospc` fails before any byte lands; `store.file.short_write`
  /// writes roughly half the buffer and then fails — a torn write.
  void pwrite(std::uint64_t offset, std::span<const std::uint8_t> bytes);

  /// Reads exactly @p out.size() bytes at @p offset or throws IoError.
  void pread(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Reads up to @p out.size() bytes at @p offset; returns the byte count
  /// (short at EOF, never throws for EOF).
  [[nodiscard]] std::size_t pread_some(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// fsync(2); the `store.file.fsync` fault point makes this throw without
  /// syncing, which is how tests model a dying disk.
  void fsync();

  void truncate(std::uint64_t length);
  void close();

  /// Atomic replace: rename(2) @p from onto @p to. @p fault_point names the
  /// fires-style point that models a crash between writing the temp file and
  /// publishing it (`store.compact.rename` for compaction's segment swap).
  static void rename_file(const std::string& from, const std::string& to,
                          const char* fault_point);

  /// fsyncs the directory itself so a rename/creat survives a power cut.
  static void sync_dir(const std::string& dir);

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace lzss::store
