#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/journal.h"  // frame_is_done
#include "serve/protocol.h"

namespace perfbench {

namespace {

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint64_t stat_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) throw CheckFailure("daemon stats line lacks '" + key + "'");
  return std::stoull(line.substr(at + key.size() + 2));
}

}  // namespace

Daemon::Daemon(const std::string& serve_bin, const std::vector<std::string>& args,
               const std::string& socket_path, const std::string& stderr_path)
    : stderr_path_(stderr_path) {
  std::vector<std::string> argv_text = {serve_bin, "--socket", socket_path};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const Clock::time_point forked = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = ::open("/dev/null", O_RDWR);
    if (err >= 0) ::dup2(err, 2);
    if (null >= 0) ::dup2(null, 1);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  for (;;) {
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("arsf_serve exited during start-up (see " + stderr_path + ")");
    }
    if (seconds_between(forked, Clock::now()) > 60.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("arsf_serve did not accept a connection within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ready_s_ = seconds_between(forked, Clock::now());
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream in{"/proc/" + std::to_string(pid_) + "/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found for the daemon");
}

DaemonStats Daemon::stop() {
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw CheckFailure("arsf_serve did not exit cleanly on SIGTERM (see " + stderr_path_ + ")");
  }
  std::ifstream in{stderr_path_};
  std::string line;
  DaemonStats stats;
  while (std::getline(in, line)) {
    if (line.find(" requests accepted=") != std::string::npos) stats.line = line;
  }
  if (stats.line.empty()) throw CheckFailure("arsf_serve printed no --stats line");
  stats.accepted = stat_field(stats.line, "accepted");
  stats.rejected = stat_field(stats.line, "rejected");
  stats.completed = stat_field(stats.line, "completed");
  stats.failed = stat_field(stats.line, "failed");
  stats.cancelled = stat_field(stats.line, "cancelled");
  stats.frames = stat_field(stats.line, "frames");
  stats.deduped = stat_field(stats.line, "deduped");
  return stats;
}

// ---- client -------------------------------------------------------------------

std::uint64_t run_phase(const std::string& socket_path, const Workload& workload,
                        std::vector<Outcome>& outcomes) {
  const std::vector<Request>& requests = workload.requests;
  const int fd = connect_unix(socket_path);
  if (fd < 0) throw CheckFailure("cannot connect to the daemon");
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  // A bounded wait, so a daemon that stops answering fails the phase below.
  const timeval wait{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait));

  const Clock::time_point start = Clock::now();
  const auto now_s = [&] { return seconds_between(start, Clock::now()); };
  std::uint64_t lines = 0;
  std::string in;
  char buffer[1 << 16];
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const Request& request = requests[index];
    Outcome& outcome = outcomes[index];
    const std::string line = request.line + '\n';
    outcome.sent_s = now_s();
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw CheckFailure(std::string{"send failed: "} + std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
    // Read frames until this request's done frame; the daemon answers a
    // connection's requests in order.
    while (outcome.done_s < 0) {
      if (now_s() > 170.0) throw CheckFailure("phase did not finish within 170 s");
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) throw CheckFailure("the daemon closed the connection with a request outstanding");
      in.append(buffer, static_cast<std::size_t>(n));
      const double at = now_s();
      std::size_t begin = 0;
      for (std::size_t end; (end = in.find('\n', begin)) != std::string::npos; begin = end + 1) {
        std::string frame = in.substr(begin, end - begin);
        ++lines;
        if (outcome.done_s >= 0) throw CheckFailure("frame after " + request.id + "'s done frame");
        if (arsf::serve::frame_request_id(frame) != request.id) {
          throw CheckFailure("frame for the wrong request: expected " + request.id);
        }
        if (outcome.first_frame_s < 0) outcome.first_frame_s = at;
        if (arsf::serve::frame_is_done(frame)) {
          outcome.done = std::move(frame);
          outcome.done_s = at;
        } else {
          outcome.frames.push_back(std::move(frame));
        }
      }
      in.erase(0, begin);
    }
  }
  return lines;
}

}  // namespace perfbench
