//===- store/page_alloc.h - append-once segment files ------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowest layer of the persistent state store (store/segment_store.h):
/// a fixed-capacity segment file with bump allocation, written with
/// pwrite() and read with pread() — nothing is memory-mapped, so no
/// appended byte stays in the writer's resident set. Bytes are written at
/// most once: the store appends chunk extents at a strictly growing
/// cursor, staged in one bounded write buffer so a commit makes a few
/// large writes, and sync() writes the buffer out and fdatasync()s before
/// any root referencing the bytes is published. A published extent cannot
/// change: writes below the cursor are refused, and files reopened for
/// reading are opened read-only.
///
/// The class is deliberately dumb: no free lists, no reuse, no interior
/// mutation. Reclaiming space is the segment store's job (whole dead
/// segments are unlinked; fragmented ones are relocated), which keeps the
/// crash-consistency argument trivial — a segment's contents never change
/// under a reader.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_STORE_PAGE_ALLOC_H
#define AWDIT_STORE_PAGE_ALLOC_H

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

namespace awdit {
namespace store {

/// Segment capacities are whole pages.
inline constexpr size_t PageSize = 4096;

/// Alignment of chunk extents inside a segment: big enough that a chunk
/// header never straddles a cache line, small enough that thousands of
/// small chunks stay compact.
inline constexpr size_t ChunkAlign = 64;

/// The write buffer of a segment being appended: bytes are staged here and
/// reach the file in writes of about this size. Writes at least this large
/// bypass it.
inline constexpr size_t WriteBufferBytes = 256u << 10;

inline size_t alignUp(size_t N, size_t A) { return (N + A - 1) & ~(A - 1); }

/// One segment file. Movable, not copyable. Two modes:
///
///  - create(): a fresh file of fixed capacity, opened read-write; the
///    owner reserves extents with allocate(), fills them with write(), and
///    makes them durable with sync().
///  - openExisting(): an existing file opened read-only (resume and the
///    awdit-store inspector); nothing can be allocated or written.
///
/// Both modes read with readv().
class SegmentFile {
public:
  SegmentFile() = default;
  SegmentFile(SegmentFile &&O) noexcept { *this = std::move(O); }
  SegmentFile &operator=(SegmentFile &&O) noexcept {
    if (this != &O) {
      reset();
      Fd = O.Fd;
      Capacity = O.Capacity;
      Used = O.Used;
      Written = O.Written;
      Writable = O.Writable;
      Buf = std::move(O.Buf);
      BufOff = O.BufOff;
      O.Fd = -1;
      O.Capacity = O.Used = O.Written = O.BufOff = 0;
      O.Writable = false;
      O.Buf.clear();
    }
    return *this;
  }
  SegmentFile(const SegmentFile &) = delete;
  SegmentFile &operator=(const SegmentFile &) = delete;
  ~SegmentFile() { reset(); }

  /// Creates \p Path (failing if it exists — segments are written once) of
  /// \p Bytes capacity, rounded up to whole pages.
  bool create(const std::string &Path, size_t Bytes, std::string *Err) {
    reset();
    size_t Cap = alignUp(Bytes, PageSize);
    int F = ::open(Path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (F < 0)
      return fail(Err, "cannot create segment '" + Path + "'");
    if (::ftruncate(F, static_cast<off_t>(Cap)) != 0) {
      ::close(F);
      ::unlink(Path.c_str());
      return fail(Err, "cannot size segment '" + Path + "'");
    }
    Fd = F;
    Capacity = Cap;
    Writable = true;
    return true;
  }

  /// Opens an existing segment read-only; its capacity is the file size.
  bool openExisting(const std::string &Path, std::string *Err) {
    reset();
    int F = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (F < 0)
      return fail(Err, "cannot open segment '" + Path + "'");
    struct stat St;
    if (::fstat(F, &St) != 0 || St.st_size == 0) {
      ::close(F);
      return fail(Err, "cannot stat segment '" + Path + "'");
    }
    Fd = F;
    Capacity = static_cast<size_t>(St.st_size);
    Used = Written = Capacity; // nothing further can be allocated
    return true;
  }

  bool writable() const { return Writable; }
  size_t capacity() const { return Capacity; }
  size_t used() const { return Used; }

  /// Bump-allocates \p Bytes (aligned to ChunkAlign) and returns the
  /// offset, or SIZE_MAX when the segment is full or read-only.
  size_t allocate(size_t Bytes) {
    size_t Off = alignUp(Used, ChunkAlign);
    if (!Writable || Off + Bytes > Capacity)
      return SIZE_MAX;
    Used = Off + Bytes;
    return Off;
  }

  /// Writes \p Bytes at \p Off, inside allocated space and at or past the
  /// end of everything written before — bytes are written once. Small
  /// writes are staged in the write buffer (the padding between extents
  /// staged as the zeros the file already holds there); call sync() to get
  /// them to the file.
  bool write(size_t Off, std::string_view Bytes, std::string *Err) {
    size_t End = BufOff + Buf.size();
    if (!Writable || Off < End || Off + Bytes.size() > Used)
      return fail(Err, "segment write outside its unwritten extents");
    if (!Buf.empty() && Off + Bytes.size() - BufOff <= WriteBufferBytes) {
      Buf.append(Off - End, '\0');
      Buf.append(Bytes.data(), Bytes.size());
      return true;
    }
    if (!flushBuffer(Err))
      return false;
    if (Bytes.size() >= WriteBufferBytes)
      return writeAt(Off, Bytes, Err);
    Buf.reserve(WriteBufferBytes);
    Buf.assign(Bytes.data(), Bytes.size());
    BufOff = Off;
    return true;
  }

  /// Writes out the staged bytes and fdatasync()s, so everything written
  /// so far is durable before a root record referencing it. Releases the
  /// write buffer: an idle segment holds no memory.
  bool sync(std::string *Err) {
    if (!Writable)
      return true;
    if (!flushBuffer(Err))
      return false;
    std::string().swap(Buf);
    if (::fdatasync(Fd) != 0)
      return fail(Err, "fdatasync failed on segment");
    return true;
  }

  /// sync(), then closes the file for writing: a full segment is never
  /// appended again.
  bool seal(std::string *Err) {
    if (!sync(Err))
      return false;
    Writable = false;
    return true;
  }

  /// Scatter read of consecutive file bytes at \p Off into \p Count
  /// buffers — a chunk header and its payload in one call. Staged bytes are
  /// not visible until sync().
  bool readv(size_t Off, iovec *V, int Count, std::string *Err) const {
    size_t Want = 0;
    for (int I = 0; I < Count; ++I)
      Want += V[I].iov_len;
    if (Off > Written || Want > Written - Off)
      return fail(Err, "segment read past the written bytes");
    while (Want > 0) {
      ssize_t N = ::preadv(Fd, V, Count, static_cast<off_t>(Off));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return fail(Err, "cannot read segment");
      size_t Got = static_cast<size_t>(N);
      Off += Got;
      Want -= Got;
      while (Count > 0 && Got >= V->iov_len) {
        Got -= V->iov_len;
        ++V;
        --Count;
      }
      if (Count > 0) {
        V->iov_base = static_cast<char *>(V->iov_base) + Got;
        V->iov_len -= Got;
      }
    }
    return true;
  }

private:
  static bool fail(std::string *Err, const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  }

  bool flushBuffer(std::string *Err) {
    if (Buf.empty())
      return true;
    if (!writeAt(BufOff, Buf, Err))
      return false;
    Buf.clear();
    return true;
  }

  bool writeAt(size_t Off, std::string_view Bytes, std::string *Err) {
    size_t Done = 0;
    while (Done < Bytes.size()) {
      ssize_t N = ::pwrite(Fd, Bytes.data() + Done, Bytes.size() - Done,
                           static_cast<off_t>(Off + Done));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return fail(Err, "cannot write segment");
      Done += static_cast<size_t>(N);
    }
    Written = Off + Bytes.size();
    BufOff = Written;
    return true;
  }

  void reset() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Capacity = Used = Written = BufOff = 0;
    Writable = false;
    std::string().swap(Buf);
  }

  int Fd = -1;
  size_t Capacity = 0;
  /// Allocation cursor: bytes [0, Used) are allocated.
  size_t Used = 0;
  /// Bytes [0, Written) are in the file (staged bytes excluded).
  size_t Written = 0;
  bool Writable = false;
  /// Staged bytes for file offsets [BufOff, BufOff + Buf.size()).
  std::string Buf;
  size_t BufOff = 0;
};

} // namespace store
} // namespace awdit

#endif // AWDIT_STORE_PAGE_ALLOC_H
