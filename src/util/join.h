// Fan-in for split operations: a request broken into `n` pieces holds one
// shared Join, each piece's completion calls Arrive, and the last arrival
// fires `done(all_ok)` — synchronously, inside that arrival.
#pragma once

#include <functional>
#include <utility>

namespace nlss::util {

struct Join {
  Join(int n, std::function<void(bool)> done)
      : remaining(n), on_done(std::move(done)) {}
  int remaining;
  bool ok = true;
  std::function<void(bool)> on_done;

  void Arrive(bool success) {
    ok = ok && success;
    if (--remaining == 0) on_done(ok);
  }
};

}  // namespace nlss::util
