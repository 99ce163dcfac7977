// Copyright (c) the XKeyword authors.
//
// CancelToken: cooperative cancellation and wall-clock deadlines, shared
// between a query's owner (the serving layer, a CLI, a test) and the
// executors running it. Executors poll StopRequested() at plan / probe
// granularity and unwind without producing further results; the owner then
// reads ToStatus() to classify the stop as kCancelled or kDeadlineExceeded.
//
// The token itself is passive — nothing fires when the deadline passes; the
// next poll observes it. Polls are cheap: one acquire atomic load, plus a
// clock read only when a deadline is armed.
//
// Memory ordering: RequestCancel/SetDeadline store with release; every poll
// (cancel_requested, has_deadline, deadline_time, deadline_exceeded) loads
// with acquire, so an observer of the flag also observes whatever the
// requesting thread published before tripping it.

#ifndef XK_COMMON_CANCEL_TOKEN_H_
#define XK_COMMON_CANCEL_TOKEN_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace xk {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Asks the query to stop; safe from any thread, idempotent.
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms an absolute deadline. Passing a time point in the past makes every
  /// subsequent poll observe the deadline as exceeded. A time point whose
  /// steady_clock nanos-since-epoch is exactly 0 would collide with the
  /// "no deadline armed" sentinel and silently disarm the deadline, so it is
  /// clamped to 1 ns — one poll later every observer still sees it as an
  /// (immediately exceeded) armed deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    int64_t ns = NanosSinceEpoch(deadline);
    if (ns == 0) ns = 1;
    deadline_ns_.store(ns, std::memory_order_release);
  }

  /// Arms a deadline `budget` from now. Non-positive budgets are ignored.
  void SetDeadlineAfter(std::chrono::nanoseconds budget) {
    if (budget.count() <= 0) return;
    SetDeadline(std::chrono::steady_clock::now() + budget);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }

  /// The armed deadline as a time point; unspecified when !has_deadline().
  /// Lets a waiter sleep until exactly the deadline instead of polling.
  std::chrono::steady_clock::time_point deadline_time() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns_.load(std::memory_order_acquire)));
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_exceeded() const {
    // Acquire, like every other deadline_ns_ poll: it pairs with the release
    // in SetDeadline so a thread that observes the armed deadline also
    // observes everything the arming thread published before it (the request
    // state a QueryService worker reads after polling the token). A relaxed
    // load here was inconsistent with has_deadline()/deadline_time() and
    // provided no such guarantee.
    const int64_t d = deadline_ns_.load(std::memory_order_acquire);
    return d != 0 &&
           NanosSinceEpoch(std::chrono::steady_clock::now()) >= d;
  }

  /// The poll executors run in hot loops.
  bool StopRequested() const {
    return cancel_requested() || deadline_exceeded();
  }

  /// Why the query should stop: kCancelled beats kDeadlineExceeded (an
  /// explicit cancel is the more specific signal); OK if neither tripped.
  Status ToStatus() const {
    if (cancel_requested()) return Status::Cancelled("query cancelled");
    if (deadline_exceeded()) return Status::DeadlineExceeded("query deadline exceeded");
    return Status::OK();
  }

 private:
  static int64_t NanosSinceEpoch(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  // 0 == no deadline armed
};

}  // namespace xk

#endif  // XK_COMMON_CANCEL_TOKEN_H_
