// A prim_serve child process the benchmark owns from start to reap.
//
// The child cannot outlive the runner: it gets PR_SET_PDEATHSIG(SIGKILL)
// between fork and exec, and its own process group. Stop() (also run by the
// destructor, so every failure path tears it down) sends SIGTERM, which makes
// prim_serve drain and exit, waits a bounded time, then SIGKILLs and reaps.
//
// Start() splits the CPUs the runner may use: the server runs on all but the
// last, and the thread that started it (the load generator) on the last, so
// neither preempts the other; without the split, loopback latency medians
// moved by half between runs.
#ifndef PRIMBENCH_RUNNER_SERVER_PROCESS_H_
#define PRIMBENCH_RUNNER_SERVER_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace primbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` with stderr going to `log_path`, then waits for
  /// its "listening on <host>:<port>" line. Returns false (child stopped)
  /// with `error` set when it exits or does not get ready in time.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, double ready_timeout_s,
             std::string* error);

  /// SIGTERM, bounded wait, SIGKILL, reap. Idempotent. Returns the exit
  /// status as waitpid reports it, or -1 when there was nothing to stop.
  int Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

/// Installs SIGINT/SIGTERM/SIGHUP handlers that kill the registered child's
/// process group before the runner dies, so an interrupted run leaves no
/// server behind either.
void InstallTeardownSignalHandlers();

/// True when this process has no child left, running or unreaped
/// (waitpid(-1, WNOHANG) fails with ECHILD).
bool NoChildrenLeft();

}  // namespace primbench

#endif  // PRIMBENCH_RUNNER_SERVER_PROCESS_H_
