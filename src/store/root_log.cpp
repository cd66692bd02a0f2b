//===- store/root_log.cpp - fsync'd append-only root records ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "store/root_log.h"

#include "support/serialize.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace awdit {
namespace store {

namespace {

constexpr uint32_t RootMagic = 0x54525741; // "AWRT" little-endian
constexpr size_t RecordHeaderBytes = 4 + 4 + 8 + 8 + 8;

bool setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

std::string recordHeader(uint64_t Seq, const std::string &Payload) {
  std::string Out;
  ByteWriter W(Out);
  W.u32(RootMagic);
  W.u32(RootLogVersion);
  W.u64(Seq);
  W.u64(Payload.size());
  W.u64(checksum64(Payload));
  return Out;
}

bool readWholeFile(const std::string &Path, std::string &Out,
                   std::string *Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return setErr(Err, "cannot open root log '" + Path + "'");
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    return setErr(Err, "cannot stat root log '" + Path + "'");
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Got = 0;
  while (Got < Out.size()) {
    ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return setErr(Err, "cannot read root log '" + Path + "'");
    }
    if (N == 0)
      break; // file shrank under us; treat the missing tail as torn
    Got += static_cast<size_t>(N);
  }
  Out.resize(Got);
  ::close(Fd);
  return true;
}

/// Parses records from \p Bytes (the log at \p Path) in order and sets
/// \p Valid to the byte offset just past the last valid record. Records must
/// have strictly increasing seq. A whole record header with the root magic
/// but another version is no torn tail: another build wrote the log. Parsing
/// then fails with an error naming both versions, and the caller must leave
/// the store as it is.
bool parseRecords(std::string_view Bytes, const std::string &Path,
                  size_t &Valid, std::vector<RootRecord> *All,
                  RootRecord *Last, uint64_t *Count, std::string *Err) {
  size_t Off = 0;
  uint64_t PrevSeq = 0;
  bool Any = false;
  while (Bytes.size() - Off >= RecordHeaderBytes) {
    ByteReader R(Bytes.data() + Off, Bytes.size() - Off);
    uint32_t Magic = R.u32();
    uint32_t Version = R.u32();
    uint64_t Seq = R.u64();
    uint64_t Size = R.u64();
    uint64_t Hash = R.u64();
    if (Magic != RootMagic)
      break;
    if (Version != RootLogVersion)
      return setErr(Err, "unsupported root log version " +
                             std::to_string(Version) + " in '" + Path +
                             "' (this build reads version " +
                             std::to_string(RootLogVersion) +
                             "); the store is left as it is");
    if (Size > R.remaining())
      break; // torn tail: header landed, payload did not
    std::string_view Payload(Bytes.data() + Off + RecordHeaderBytes,
                             static_cast<size_t>(Size));
    if (checksum64(Payload) != Hash)
      break;
    if (Any && Seq <= PrevSeq)
      break; // regression in seq means the tail is not ours
    PrevSeq = Seq;
    Any = true;
    if (All)
      All->push_back({Seq, std::string(Payload)});
    if (Last)
      *Last = {Seq, std::string(Payload)};
    if (Count)
      ++*Count;
    Off += RecordHeaderBytes + static_cast<size_t>(Size);
  }
  Valid = Off;
  return true;
}

bool fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return false;
  bool Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
}

bool writeAll(int Fd, std::string_view Bytes) {
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// Writes one framed record: its header, then the payload in place.
bool writeRecord(int Fd, uint64_t Seq, const std::string &Payload) {
  return writeAll(Fd, recordHeader(Seq, Payload)) && writeAll(Fd, Payload);
}

} // namespace

RootLog::~RootLog() {
  if (Fd >= 0)
    ::close(Fd);
}

std::string RootLog::filePath(const std::string &D) {
  return D + "/roots.awrl";
}

bool RootLog::open(const std::string &D, std::string *Err) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Dir = D;
  Path = filePath(D);
  ReadOnly = false;
  Fd = ::open(Path.c_str(), O_RDWR | O_CREAT, 0644);
  if (Fd < 0)
    return setErr(Err, "cannot open root log '" + Path + "'");
  if (scanAndTruncate(Err))
    return true;
  // Nothing may be appended to a log that did not scan.
  ::close(Fd);
  Fd = -1;
  return false;
}

bool RootLog::openReadOnly(const std::string &D, std::string *Err) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Dir = D;
  Path = filePath(D);
  ReadOnly = true;
  std::string Bytes;
  if (!readWholeFile(Path, Bytes, Err))
    return false;
  HasLast = false;
  Records = 0;
  RootRecord Last;
  size_t Valid = 0;
  if (!parseRecords(Bytes, Path, Valid, nullptr, &Last, &Records, Err))
    return false;
  FileBytes = Valid;
  if (Records > 0) {
    HasLast = true;
    LastSeq = Last.Seq;
    LastPayload = std::move(Last.Payload);
  }
  return true;
}

bool RootLog::scanAndTruncate(std::string *Err) {
  std::string Bytes;
  if (!readWholeFile(Path, Bytes, Err))
    return false;
  HasLast = false;
  Records = 0;
  RootRecord Last;
  size_t Valid = 0;
  if (!parseRecords(Bytes, Path, Valid, nullptr, &Last, &Records, Err))
    return false;
  if (Records > 0) {
    HasLast = true;
    LastSeq = Last.Seq;
    LastPayload = std::move(Last.Payload);
  }
  if (Valid < Bytes.size()) {
    // A crash mid-append left a torn tail; cut it so the next append
    // starts on a record boundary.
    if (::ftruncate(Fd, static_cast<off_t>(Valid)) != 0)
      return setErr(Err, "cannot truncate torn root-log tail in '" + Path +
                             "'");
  }
  if (::lseek(Fd, static_cast<off_t>(Valid), SEEK_SET) < 0)
    return setErr(Err, "cannot seek root log '" + Path + "'");
  FileBytes = Valid;
  return true;
}

bool RootLog::append(std::string Payload, std::string *Err) {
  if (Fd < 0 || ReadOnly)
    return setErr(Err, "root log not open for writing");
  if (!writeRecord(Fd, LastSeq + 1, Payload))
    return setErr(Err, "cannot append to root log '" + Path + "'");
  if (::fsync(Fd) != 0)
    return setErr(Err, "fsync failed on root log '" + Path + "'");
  ++LastSeq;
  FileBytes += RecordHeaderBytes + Payload.size();
  LastPayload = std::move(Payload);
  HasLast = true;
  ++Records;
  return true;
}

bool RootLog::rotate(std::string *Err) {
  if (Fd < 0 || ReadOnly)
    return setErr(Err, "root log not open for writing");
  if (!HasLast)
    return true;
  std::string Tmp = Path + ".tmp";
  int TmpFd = ::open(Tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (TmpFd < 0)
    return setErr(Err, "cannot create root-log temp '" + Tmp + "'");
  bool Ok = writeRecord(TmpFd, LastSeq, LastPayload) && ::fsync(TmpFd) == 0;
  if (!Ok) {
    ::close(TmpFd);
    ::unlink(Tmp.c_str());
    return setErr(Err, "cannot write root-log temp '" + Tmp + "'");
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::close(TmpFd);
    ::unlink(Tmp.c_str());
    return setErr(Err, "cannot rename root-log temp into '" + Path + "'");
  }
  fsyncDir(Dir);
  // Keep appending to the new file generation; the old descriptor still
  // points at the unlinked previous file.
  ::close(Fd);
  Fd = TmpFd;
  if (::lseek(Fd, 0, SEEK_END) < 0)
    return setErr(Err, "cannot seek rotated root log '" + Path + "'");
  FileBytes = RecordHeaderBytes + LastPayload.size();
  Records = 1;
  return true;
}

bool RootLog::scanAll(const std::string &Dir, std::vector<RootRecord> &Out,
                      bool &TornTail, std::string *Err) {
  std::string Path = filePath(Dir);
  std::string Bytes;
  if (!readWholeFile(Path, Bytes, Err))
    return false;
  Out.clear();
  size_t Valid = 0;
  if (!parseRecords(Bytes, Path, Valid, &Out, nullptr, nullptr, Err))
    return false;
  TornTail = Valid < Bytes.size();
  return true;
}

} // namespace store
} // namespace awdit
