#include "server_process.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"

namespace primbench {
namespace {

// The child the signal handler must kill; -1 when none is running.
std::atomic<pid_t> g_child{-1};

void KillChildAndExit(int signo) {
  const pid_t child = g_child.load();
  if (child > 0) {
    kill(-child, SIGKILL);
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

void SleepS(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Splits the CPUs this process may use: the server gets all but the last,
// the driving thread the last. Nothing changes on a single CPU.
void PinForServing(bool server, const cpu_set_t& allowed) {
  int last = -1, count = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) last = c, ++count;
  if (count < 2) return;
  cpu_set_t set = allowed;
  if (server) {
    CPU_CLR(last, &set);
  } else {
    CPU_ZERO(&set);
    CPU_SET(last, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// Port from the log's "listening on <host>:<port>" line, -1 if absent.
int ListeningPort(const std::string& log_path) {
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("listening on ");
    if (at == std::string::npos) continue;
    const size_t colon = line.find(':', at + 13);
    if (colon == std::string::npos) continue;
    return std::atoi(line.c_str() + colon + 1);
  }
  return -1;
}

}  // namespace

void InstallTeardownSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = KillChildAndExit;
  sigemptyset(&action.sa_mask);
  for (int signo : {SIGINT, SIGTERM, SIGHUP}) sigaction(signo, &action, nullptr);
  // A server that dies mid-write must surface as a write error, not kill us.
  signal(SIGPIPE, SIG_IGN);
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, double ready_timeout_s,
                          std::string* error) {
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path + ": " + std::strerror(errno);
    return false;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    setpgid(0, 0);
    PinForServing(/*server=*/true, allowed);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // The runner died before prctl.
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, STDIN_FILENO);
    dup2(null_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  // The driving thread gets the last CPU to itself, so the load generator
  // and the server never preempt each other.
  PinForServing(/*server=*/false, allowed);
  setpgid(pid, pid);  // Also from the parent, so the group exists either way.
  pid_ = pid;
  g_child.store(pid);

  const double deadline = NowS() + ready_timeout_s;
  while (NowS() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_child.store(-1);
      *error = "prim_serve exited before it was ready (see " + log_path + ")";
      return false;
    }
    port_ = ListeningPort(log_path);
    if (port_ > 0) return true;
    SleepS(0.01);
  }
  Stop();
  *error = "prim_serve did not report a listening port (see " + log_path + ")";
  return false;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  const double deadline = NowS() + 10.0;
  while (NowS() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      reaped = true;
      break;
    }
    SleepS(0.005);
  }
  if (!reaped) {
    std::fprintf(stderr, "primbench: prim_serve ignored SIGTERM; killing it\n");
    kill(-pid_, SIGKILL);
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  g_child.store(-1);
  return status;
}

bool NoChildrenLeft() {
  int status = 0;
  return waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

}  // namespace primbench
