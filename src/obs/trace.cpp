//===- obs/trace.cpp - Per-thread lock-free span tracing -------------------===//

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

using namespace awdit;
using namespace awdit::obs;

std::atomic<bool> awdit::obs::detail::TraceOn{false};

namespace {

/// One ring slot: a seqlock of relaxed atomics. The owner thread writes
/// (odd seq → fields → even seq with a release fence between the odd
/// store and the fields, release on the closing store); a dumper accepts
/// a slot only when it reads the same even sequence before and after the
/// fields, so a slot being overwritten is skipped, never torn. All-atomic
/// fields keep the race well-defined (and TSan-clean).
struct Slot {
  std::atomic<uint32_t> Seq{0};
  std::atomic<const char *> Name{nullptr};
  std::atomic<uint64_t> StartNs{0};
  std::atomic<uint64_t> DurNs{0};
};

struct ThreadRing {
  explicit ThreadRing(uint32_t Tid) : Tid(Tid) {}
  ~ThreadRing() { delete[] SlotsPtr.load(std::memory_order_relaxed); }
  /// Dump-track id; rewritten when a detached ring is reused (atomic so a
  /// concurrent dump reads old-or-new, never garbage).
  std::atomic<uint32_t> Tid;
  /// The slot array, allocated by the owner thread on the first recorded
  /// event (~256KB) — a thread that only names itself while tracing is
  /// off costs a few dozen bytes, not a ring. Owner-published with
  /// release; dumpers load with acquire and skip a null ring.
  std::atomic<Slot *> SlotsPtr{nullptr};
  /// Monotonic write index; owner-incremented, dumper-read.
  std::atomic<uint64_t> Next{0};
  /// Events below this index are cleared (traceClear sets it to Next).
  std::atomic<uint64_t> DroppedBefore{0};
  /// Guarded by the registry mutex (set rarely, read at dump).
  std::string Name;
  /// The owner thread exited; the ring stays dumpable until a new thread
  /// claims it. Guarded by the registry mutex.
  bool Detached = false;
};

struct Registry {
  std::mutex Mu;
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  uint32_t NextTid = 1;
};

Registry &registry() {
  static Registry *R = new Registry; // never destroyed: threads may
  return *R;                         // record during static teardown
}

/// Thread-exit bookkeeping: a ring that never recorded an event is
/// removed outright (so naming threads with tracing off — every hot
/// upgrade's fresh workers — costs nothing after they exit); a ring with
/// events is left in the registry for post-mortem dumps but marked
/// reusable, so the registry holds at most one allocated ring per
/// historical peak thread, not one per thread ever started.
struct RingHandle {
  std::shared_ptr<ThreadRing> Ring;
  ~RingHandle() {
    if (!Ring)
      return;
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    if (!Ring->SlotsPtr.load(std::memory_order_relaxed)) {
      for (size_t I = 0; I < R.Rings.size(); ++I) {
        if (R.Rings[I] == Ring) {
          R.Rings.erase(R.Rings.begin() + I);
          break;
        }
      }
      return;
    }
    Ring->Detached = true;
  }
};

ThreadRing &threadRing() {
  thread_local RingHandle H = [] {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &P : R.Rings) {
      // Reuse a dead thread's allocation under a fresh identity — but
      // only once its window is empty (traceClear ran since it died):
      // a detached ring with events is a post-mortem record that a dump
      // may still want (short-lived pool workers in an end-of-run
      // trace), and wiping it here would race that dump.
      if (!P->Detached || P->Next.load(std::memory_order_acquire) !=
                              P->DroppedBefore.load(std::memory_order_acquire))
        continue;
      P->Detached = false;
      P->Tid.store(R.NextTid++, std::memory_order_relaxed);
      P->Name.clear();
      return RingHandle{P};
    }
    auto P = std::make_shared<ThreadRing>(R.NextTid++);
    R.Rings.push_back(P);
    return RingHandle{P};
  }();
  return *H.Ring;
}

void writeSlot(ThreadRing &Ring, const char *Name, uint64_t StartNs,
               uint64_t DurNs) {
  Slot *Slots = Ring.SlotsPtr.load(std::memory_order_relaxed);
  if (!Slots) {
    Slots = new Slot[TraceRingSlots];
    Ring.SlotsPtr.store(Slots, std::memory_order_release);
  }
  uint64_t I = Ring.Next.load(std::memory_order_relaxed);
  Slot &S = Slots[I & (TraceRingSlots - 1)];
  uint32_t Seq = S.Seq.load(std::memory_order_relaxed);
  S.Seq.store(Seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  S.Name.store(Name, std::memory_order_relaxed);
  S.StartNs.store(StartNs, std::memory_order_relaxed);
  S.DurNs.store(DurNs, std::memory_order_relaxed);
  S.Seq.store(Seq + 2, std::memory_order_release);
  Ring.Next.store(I + 1, std::memory_order_release);
}

/// A stable copy of one slot, or false when it was mid-overwrite.
struct EventCopy {
  const char *Name;
  uint64_t StartNs;
  uint64_t DurNs;
};

bool readSlot(const Slot &S, EventCopy &Out) {
  uint32_t S1 = S.Seq.load(std::memory_order_acquire);
  if (S1 & 1)
    return false;
  Out.Name = S.Name.load(std::memory_order_relaxed);
  Out.StartNs = S.StartNs.load(std::memory_order_relaxed);
  Out.DurNs = S.DurNs.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return S.Seq.load(std::memory_order_relaxed) == S1 && Out.Name != nullptr;
}

void appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
}

void appendMicros(std::string &Out, uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned long long>(Ns % 1000));
  Out += Buf;
}

} // namespace

uint64_t awdit::obs::traceNowNanos() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void awdit::obs::setTraceEnabled(bool On) {
  (void)traceNowNanos(); // pin the epoch before the first span
  detail::TraceOn.store(On, std::memory_order_relaxed);
}

void awdit::obs::setTraceThreadName(std::string_view Name) {
  ThreadRing &Ring = threadRing();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Ring.Name.assign(Name.data(), Name.size());
}

void awdit::obs::detail::recordSpan(const char *Name, uint64_t StartNs) {
  writeSlot(threadRing(), Name, StartNs, traceNowNanos() - StartNs);
}

void awdit::obs::traceClear() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (auto &Ring : R.Rings)
    Ring->DroppedBefore.store(Ring->Next.load(std::memory_order_acquire),
                              std::memory_order_release);
  // A clear also retires dead threads' rings outright: their only reason
  // to linger was the post-mortem window just dropped. This is what keeps
  // a long-running server's registry bounded — every `TRACE on` (which
  // clears) reclaims the rings of all exited workers.
  R.Rings.erase(std::remove_if(R.Rings.begin(), R.Rings.end(),
                               [](const std::shared_ptr<ThreadRing> &P) {
                                 return P->Detached;
                               }),
                R.Rings.end());
}

std::string awdit::obs::traceDumpJson() {
  // Snapshot the ring list, then walk each ring without the lock: the
  // record path never takes it, so holding it would not stop writers
  // anyway — the per-slot seqlocks carry the race.
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  std::vector<std::string> Names;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    Rings = R.Rings;
    for (auto &Ring : Rings)
      Names.push_back(Ring->Name);
  }

  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };
  for (size_t I = 0; I < Rings.size(); ++I) {
    const ThreadRing &Ring = *Rings[I];
    uint32_t Tid = Ring.Tid.load(std::memory_order_relaxed);
    if (!Names[I].empty()) {
      Sep();
      Out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
      Out += std::to_string(Tid);
      Out += ",\"args\":{\"name\":\"";
      appendJsonEscaped(Out, Names[I]);
      Out += "\"}}";
    }
    const Slot *Slots = Ring.SlotsPtr.load(std::memory_order_acquire);
    if (!Slots)
      continue; // Named but never recorded: no events to walk.
    uint64_t End = Ring.Next.load(std::memory_order_acquire);
    uint64_t Floor = Ring.DroppedBefore.load(std::memory_order_acquire);
    uint64_t Lo = End > TraceRingSlots ? End - TraceRingSlots : 0;
    if (Lo < Floor)
      Lo = Floor;
    for (uint64_t J = Lo; J < End; ++J) {
      EventCopy E;
      if (!readSlot(Slots[J & (TraceRingSlots - 1)], E))
        continue;
      Sep();
      Out += "{\"ph\":\"X\",\"name\":\"";
      appendJsonEscaped(Out, E.Name);
      Out += "\",\"cat\":\"awdit\",\"pid\":1,\"tid\":";
      Out += std::to_string(Tid);
      Out += ",\"ts\":";
      appendMicros(Out, E.StartNs);
      Out += ",\"dur\":";
      appendMicros(Out, E.DurNs);
      Out += "}";
    }
  }
  Out += "]}\n";
  return Out;
}

bool awdit::obs::writeTraceFile(const std::string &Path, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::string Json = traceDumpJson();
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Fail("cannot open '" + Tmp + "' for writing");
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size();
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return Fail("short write to '" + Tmp + "'");
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Fail("cannot rename '" + Tmp + "' to '" + Path + "'");
  }
  return true;
}
