// perfbench_exec — runs one command and reports its wall time, CPU time and
// peak RSS from wait4(2).
//
//   perfbench_exec RESULT_FILE TIMEOUT_S COMMAND [ARGS...]
//
// Linux carries the peak RSS of the process that calls exec into the new
// program's ru_maxrss, so a command spawned straight from the Python driver
// would report at least the driver's own footprint.  This launcher is small,
// so the peak RSS it reports is the command's own.  The command inherits
// stdin, stdout, stderr and the working directory; after TIMEOUT_S seconds
// it is killed with SIGKILL.  Writes one JSON object to RESULT_FILE:
//
//   {"exit": N, "timed_out": false, "wall_s": S, "cpu_s": S, "maxrss_kb": K}
//
// `exit` is the command's exit code, or 128 + the signal that ended it.
// Exit status: 0 when RESULT_FILE was written, 2 on bad usage or a failed
// fork, wait or write.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_timed_out = 0;
volatile pid_t g_child = 0;

void on_alarm(int /*signal*/) {
  g_timed_out = 1;
  if (g_child > 0) kill(g_child, SIGKILL);
}

int usage() {
  std::fprintf(stderr, "usage: perfbench_exec RESULT_FILE TIMEOUT_S COMMAND [ARGS...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const char* result_path = argv[1];
  char* end = nullptr;
  const long timeout_s = std::strtol(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0' || timeout_s <= 0) return usage();

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_exec: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror(argv[3]);
    _exit(127);
  }
  g_child = pid;
  struct sigaction action {};
  action.sa_handler = on_alarm;
  sigaction(SIGALRM, &action, nullptr);
  alarm(static_cast<unsigned>(timeout_s));

  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_exec: wait4");
      return 2;
    }
  }
  alarm(0);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                       static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);

  std::FILE* out = std::fopen(result_path, "w");
  if (out == nullptr) {
    std::perror(result_path);
    return 2;
  }
  std::fprintf(out,
               "{\"exit\": %d, \"timed_out\": %s, \"wall_s\": %.9f, \"cpu_s\": %.6f, "
               "\"maxrss_kb\": %ld}\n",
               code, g_timed_out ? "true" : "false", wall_s, cpu_s, usage.ru_maxrss);
  if (std::fclose(out) != 0) {
    std::perror(result_path);
    return 2;
  }
  return 0;
}
