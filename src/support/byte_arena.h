//===- support/byte_arena.h - Refcounted pages of stream bytes ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zero-copy byte path of the ingest pipeline: stream bytes are written
/// once into page-sized refcounted buffers, and everything downstream —
/// line decoding, the server's per-connection line splitting — works on
/// `{page ref, byte range}` spans of the same pages.
/// No byte is copied after it leaves the read(2) buffer (or, with
/// ArenaWriter::window(), after the read(2) itself lands in the page).
///
/// Lifetime rules:
///  - a PageSpan's shared_ptr keeps its page alive; a page is freed when
///    the last span over it drops (lines are decoded into self-contained
///    LineEvents, so decoded output never pins pages);
///  - pages are immutable at and after any offset handed out in a span;
///    the writer only appends beyond them;
///  - when a page fills, the unconsumed tail (at most one partial line) is
///    carried into the next page — the one copy the scheme allows, bounded
///    by the longest line, not the stream.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_BYTE_ARENA_H
#define AWDIT_SUPPORT_BYTE_ARENA_H

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

namespace awdit {

/// One immutable-once-shared buffer of raw stream bytes.
class ArenaPage {
public:
  explicit ArenaPage(size_t Cap)
      : Bytes(new char[Cap]), Cap(Cap) {}

  char *data() { return Bytes.get(); }
  const char *data() const { return Bytes.get(); }
  size_t capacity() const { return Cap; }

private:
  std::unique_ptr<char[]> Bytes;
  size_t Cap;
};

using ArenaPageRef = std::shared_ptr<ArenaPage>;

/// A [Begin, End) byte range of one shared page. The refcount is the
/// lifetime: whoever holds the span may read the bytes.
struct PageSpan {
  ArenaPageRef Page;
  size_t Begin = 0;
  size_t End = 0;

  size_t size() const { return End - Begin; }
  std::string_view view() const {
    return {Page->data() + Begin, End - Begin};
  }
};

/// The single-writer front of the arena: append bytes at the tail (by
/// copying or read(2)-ing into window() and commit()-ing), take refcounted
/// whole-line spans off the front. Rolls to a fresh page when the current
/// one fills, carrying the unconsumed tail.
class ArenaWriter {
public:
  explicit ArenaWriter(size_t PageBytes) : PageBytes(PageBytes) {}

  /// A writable window of at least \p Min bytes at the tail (usually the
  /// whole rest of the page). Bytes written there become part of the
  /// stream only after commit().
  std::pair<char *, size_t> window(size_t Min = 1) {
    if (!Page || Page->capacity() - WritePos < Min)
      roll(Min);
    return {Page->data() + WritePos, Page->capacity() - WritePos};
  }

  /// Publishes \p N bytes written into the last window().
  void commit(size_t N) { WritePos += N; }

  /// The committed-but-untaken bytes (whole lines plus a trailing partial
  /// line). Valid until the next window()/append().
  std::string_view pending() const {
    return Page ? std::string_view(Page->data() + ReadPos, WritePos - ReadPos)
                : std::string_view();
  }
  size_t pendingBytes() const { return WritePos - ReadPos; }

  /// Takes the next \p N pending bytes as a refcounted span — from here on
  /// those bytes are immutable and owned by whoever holds the span.
  PageSpan take(size_t N) {
    PageSpan S{Page, ReadPos, ReadPos + N};
    ReadPos += N;
    return S;
  }

private:
  void roll(size_t Min) {
    size_t Tail = WritePos - ReadPos;
    if (Page && Tail == 0 && Page->capacity() >= Min) {
      // Spans may have been dropped on other threads. Taking a reference
      // is an acq_rel increment of the same count their drops decremented,
      // so it orders their reads before the writes that recycle the page;
      // a plain use_count() load would not.
      ArenaPageRef Probe = Page;
      if (Probe.use_count() == 2) {
        // No outstanding spans and nothing to carry: recycle in place.
        ReadPos = WritePos = 0;
        return;
      }
    }
    // A line longer than half a page gets a page twice its size, so a
    // line that keeps growing is copied O(1) times per byte; everything
    // else gets the standard size.
    size_t Cap = std::max(PageBytes, 2 * Tail + Min);
    ArenaPageRef Next = std::make_shared<ArenaPage>(Cap);
    if (Tail)
      std::memcpy(Next->data(), Page->data() + ReadPos, Tail);
    Page = std::move(Next);
    ReadPos = 0;
    WritePos = Tail;
  }

  size_t PageBytes;
  ArenaPageRef Page;
  size_t ReadPos = 0;
  size_t WritePos = 0;
};

} // namespace awdit

#endif // AWDIT_SUPPORT_BYTE_ARENA_H
