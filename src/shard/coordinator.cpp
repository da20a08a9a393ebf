#include "shard/coordinator.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "shard/lease_file.h"

namespace bd::shard {

namespace {

struct EnvPair {
  std::string name;
  std::string value;
};

/// fork + execvp with the given env overrides, stdout/stderr redirected
/// to `out_path` ("" inherits). Returns the child pid.
int spawn(const std::vector<std::string>& command,
          const std::vector<EnvPair>& env, const std::string& out_path) {
  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("shard: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    for (const EnvPair& e : env) {
      ::setenv(e.name.c_str(), e.value.c_str(), 1);
    }
    if (!out_path.empty()) {
      const int fd =
          ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) _exit(126);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execvp(argv[0], argv.data());
    // execvp only returns on failure; no unwinding in a forked child.
    _exit(127);
  }
  return static_cast<int>(pid);
}

int await_exit(int pid, int* signal_out) {
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(static_cast<pid_t>(pid), &status, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    throw std::runtime_error(std::string("shard: waitpid failed: ") +
                             std::strerror(errno));
  }
  if (WIFSIGNALED(status)) {
    if (signal_out != nullptr) *signal_out = WTERMSIG(status);
    return -1;
  }
  if (signal_out != nullptr) *signal_out = 0;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

CoordinatorReport run_sharded(const CoordinatorOptions& options) {
  if (options.workers < 1) {
    throw std::runtime_error("shard: need at least one worker");
  }
  if (options.command.empty()) {
    throw std::runtime_error("shard: no bench command given");
  }
  const std::string lease_path = options.lease_path.empty()
                                     ? options.journal_path + ".leases"
                                     : options.lease_path;
  if (!options.resume) {
    ::remove(options.journal_path.c_str());
    ::remove(lease_path.c_str());
  }

  std::cout << "shard: " << options.workers << " worker(s), journal "
            << options.journal_path << ", leases " << lease_path << "\n";

  CoordinatorReport report;
  for (int i = 1; i <= options.workers; ++i) {
    WorkerExit we;
    we.worker_id = std::to_string(i).insert(0, 1, 'w');
    we.log_path = lease_path + "." + we.worker_id + ".log";
    std::vector<EnvPair> env = {
        {"BDPROTO_SHARD_LEASES", lease_path},
        {"BDPROTO_SHARD_WORKER", we.worker_id},
        {"BDPROTO_JOURNAL", options.journal_path},
        {"BDPROTO_RESUME", "1"},
    };
    const auto fault = options.worker_faults.find(i);
    env.push_back(
        {"BDPROTO_FAULTS",
         fault != options.worker_faults.end() ? fault->second : ""});
    we.pid = spawn(options.command, env, we.log_path);
    report.workers.push_back(we);
  }

  for (WorkerExit& we : report.workers) {
    we.exit_code = await_exit(we.pid, &we.signal);
    if (we.signal != 0) {
      ++report.crashed_workers;
      std::cout << "shard: worker " << we.worker_id << " killed by signal "
                << we.signal << " (log: " << we.log_path << ")\n";
    } else if (we.exit_code != 0) {
      ++report.failed_workers;
      std::cout << "shard: worker " << we.worker_id << " exited "
                << we.exit_code << " (log: " << we.log_path << ")\n";
    } else {
      std::cout << "shard: worker " << we.worker_id << " completed\n";
    }
    // Per-worker counts live in the workers' own stats lines, not in the
    // lease file.
    std::ifstream log(we.log_path);
    for (std::string line; std::getline(log, line);) {
      if (line.rfind("shard worker ", 0) == 0) std::cout << line << "\n";
    }
  }

  // Merge pass: sharding off, resume on — the bench re-derives the table
  // from the journal's full-precision fields, executing only cells the
  // whole fleet failed to finish. Output is byte-identical across worker
  // counts and crash schedules.
  std::vector<EnvPair> merge_env = {
      {"BDPROTO_SHARD_LEASES", ""},  // empty disables worker mode
      {"BDPROTO_JOURNAL", options.journal_path},
      {"BDPROTO_RESUME", "1"},
      {"BDPROTO_FAULTS", ""},
  };
  const int merge_pid =
      spawn(options.command, merge_env, options.merged_out);
  int merge_signal = 0;
  report.exit_code = await_exit(merge_pid, &merge_signal);
  if (merge_signal != 0) {
    std::cout << "shard: merge pass killed by signal " << merge_signal
              << "\n";
  }

  report.leases = summarize(inspect_leases(lease_path));
  const LeaseSummary& s = report.leases;
  std::cout << "shard: cells=" << s.cells << " done=" << s.done
            << " steals=" << s.steals << " live=" << s.live
            << " orphaned=" << s.orphaned
            << " crashed_workers=" << report.crashed_workers << "\n";
  if (report.exit_code == 0 && !options.merged_out.empty()) {
    std::cout << "shard: merged table written to " << options.merged_out
              << "\n";
  }
  return report;
}

}  // namespace bd::shard
