#pragma once
// The daemon under test as a child process, and the socket client that
// drives it.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// The counters `arsf_serve --stats` prints at exit.
struct DaemonStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t frames = 0;
  std::uint64_t deduped = 0;
  std::string line;  ///< the raw stats line
};

/// One forked arsf_serve.  The constructor returns once the daemon accepts
/// a connection on its socket; the destructor kills a daemon that was not
/// stopped.
class Daemon {
 public:
  Daemon(const std::string& serve_bin, const std::vector<std::string>& args,
         const std::string& socket_path, const std::string& stderr_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from fork() until the first successful connect().
  [[nodiscard]] double ready_s() const noexcept { return ready_s_; }
  /// VmHWM of the running daemon in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, wait for exit, and parse the --stats line.
  DaemonStats stop();

 private:
  pid_t pid_ = -1;
  std::string stderr_path_;
  double ready_s_ = 0.0;
};

/// What the client saw of one request.  Times are seconds from the start
/// of the phase; -1 = never.
struct Outcome {
  double sent_s = -1.0;  ///< when its line was handed to the socket
  double first_frame_s = -1.0;
  double done_s = -1.0;
  std::vector<std::string> frames;  ///< result frames, as received
  std::string done;                 ///< the done frame
};

/// Sends the requests of @p workload one at a time over one connection to
/// the daemon at @p socket_path: each goes out when the previous one's done
/// frame is in.  Records every frame in @p outcomes (one per request) and
/// returns the number of lines received, done frames included.  Throws
/// CheckFailure on a lost connection or a frame for the wrong request.
std::uint64_t run_phase(const std::string& socket_path, const Workload& workload,
                        std::vector<Outcome>& outcomes);

}  // namespace perfbench
