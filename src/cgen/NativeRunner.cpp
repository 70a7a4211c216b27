//===- cgen/NativeRunner.cpp - Compile-and-run execution of emitted C -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cgen/NativeRunner.h"

#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::cgen;

namespace {

/// Outcome of one child process run.
struct ProcResult {
  bool Started = false;  ///< fork/pipe machinery worked
  bool TimedOut = false; ///< killed at the deadline
  bool ExecFailed = false; ///< the executable itself could not be run
  int ExitCode = -1;     ///< valid when exited normally
  int Signal = 0;        ///< nonzero when terminated by a signal
  std::string Output;    ///< combined stdout+stderr, capped at 1 MiB
};

constexpr size_t OutputCap = 1 << 20;

/// Sentinel exit code the child uses when execvp itself fails; chosen to
/// match the shell convention for "command not found".
constexpr int ExecFailCode = 127;

/// Runs \p Argv with stdout+stderr captured, killing the whole process
/// group at the deadline.
ProcResult runProcess(const std::vector<std::string> &Argv,
                      uint64_t TimeoutMs) {
  ProcResult R;

  // Close-on-exec, so a compiler or kernel another thread forks at the
  // same time does not inherit this capture pipe.
  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0)
    return R;

  pid_t Pid = fork();
  if (Pid < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return R;
  }
  if (Pid == 0) {
    // Child: own process group so a timeout kill reaps OpenMP workers too.
    setpgid(0, 0);
    dup2(Pipe[1], STDOUT_FILENO);
    dup2(Pipe[1], STDERR_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    std::vector<char *> Args;
    Args.reserve(Argv.size() + 1);
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    execvp(Args[0], Args.data());
    _exit(ExecFailCode);
  }

  // Parent.
  R.Started = true;
  close(Pipe[1]);
  fcntl(Pipe[0], F_SETFL, O_NONBLOCK);

  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  bool Exited = false;
  int Status = 0;
  char Buf[4096];
  for (;;) {
    ssize_t N;
    while ((N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
      if (R.Output.size() < OutputCap)
        R.Output.append(Buf, Buf + std::min<size_t>(
                                       static_cast<size_t>(N),
                                       OutputCap - R.Output.size()));
    pid_t W = waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      Exited = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= Deadline) {
      kill(-Pid, SIGKILL);
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      R.TimedOut = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain whatever arrived between the last read and exit.
  ssize_t N;
  while ((N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    if (R.Output.size() < OutputCap)
      R.Output.append(Buf, Buf + std::min<size_t>(static_cast<size_t>(N),
                                                  OutputCap - R.Output.size()));
  close(Pipe[0]);

  if (Exited) {
    if (WIFEXITED(Status)) {
      R.ExitCode = WEXITSTATUS(Status);
      R.ExecFailed = R.ExitCode == ExecFailCode;
    } else if (WIFSIGNALED(Status)) {
      R.Signal = WTERMSIG(Status);
    }
  }
  return R;
}

bool answersVersion(const std::string &CC) {
  ProcResult R = runProcess({CC, "--version"}, 10000);
  return R.Started && !R.TimedOut && R.ExitCode == 0;
}

/// First line (or first 400 chars) of a tool's output, for diagnostics.
std::string excerpt(const std::string &Output) {
  std::string S = Output.substr(0, 400);
  for (char &C : S)
    if (C == '\n')
      C = ' ';
  return S;
}

uint64_t hexField(const json::JsonValue &Obj, std::string_view Key) {
  std::string S = Obj.stringOr(Key, "0x0");
  return strtoull(S.c_str(), nullptr, 16);
}

} // namespace

std::string irlt::cgen::probeCompiler() {
  if (const char *Env = getenv("IRLT_CC"); Env && *Env)
    return answersVersion(Env) ? std::string(Env) : std::string();
  for (const char *CC : {"cc", "gcc", "clang"})
    if (answersVersion(CC))
      return CC;
  return "";
}

const char *irlt::cgen::nativeStatusName(NativeStatus S) {
  switch (S) {
  case NativeStatus::Ok:
    return "ok";
  case NativeStatus::Mismatch:
    return "mismatch";
  case NativeStatus::NoCompiler:
    return "no-compiler";
  case NativeStatus::CompileError:
    return "compile-error";
  case NativeStatus::RunTimeout:
    return "run-timeout";
  case NativeStatus::RunError:
    return "run-error";
  case NativeStatus::BadOutput:
    return "bad-output";
  }
  return "unknown";
}

NativeResult irlt::cgen::runNative(const std::string &Program,
                                   const NativeRunOptions &Options) {
  NativeResult R;

  std::string CC = Options.Compiler.empty() ? probeCompiler()
                                            : Options.Compiler;
  if (CC.empty()) {
    R.Status = NativeStatus::NoCompiler;
    R.Detail = "no host C compiler (set IRLT_CC or install cc/gcc/clang)";
    return R;
  }

  // Scratch directory.
  std::string Dir = Options.WorkDir;
  bool OwnDir = false;
  if (Dir.empty()) {
    const char *Tmp = getenv("TMPDIR");
    std::string Templ =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/irlt-cgen-XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    if (!mkdtemp(Buf.data())) {
      R.Status = NativeStatus::RunError;
      R.Detail = std::string("mkdtemp failed: ") + strerror(errno);
      return R;
    }
    Dir = Buf.data();
    OwnDir = true;
  }
  std::string Src = Dir + "/program.c";
  std::string Bin = Dir + "/program.bin";
  auto Cleanup = [&]() {
    if (Options.KeepFiles)
      return;
    remove(Src.c_str());
    remove(Bin.c_str());
    if (OwnDir)
      rmdir(Dir.c_str());
  };

  {
    std::ofstream Out(Src, std::ios::binary);
    Out << Program;
    if (!Out) {
      R.Status = NativeStatus::RunError;
      R.Detail = "cannot write " + Src;
      Cleanup();
      return R;
    }
  }
  if (Options.KeepFiles)
    R.SourcePath = Src;

  // Compile: -fwrapv so int64 arithmetic wraps (the interpreter's
  // overflow guard rejects overflowing cases before they reach here,
  // and wrapping keeps any residual overflow deterministic, not UB).
  auto CompileArgv = [&](bool OpenMP) {
    std::vector<std::string> A{CC, "-O2", "-fwrapv"};
    if (OpenMP)
      A.push_back("-fopenmp");
    A.insert(A.end(), {"-o", Bin, Src, "-lm"});
    return A;
  };
  ProcResult C = runProcess(CompileArgv(Options.OpenMP),
                            Options.CompileTimeoutMs);
  std::string Note;
  if (Options.OpenMP && C.Started && !C.TimedOut && C.ExitCode != 0 &&
      !C.ExecFailed) {
    // Some host compilers lack libomp; fall back to serial.
    C = runProcess(CompileArgv(false), Options.CompileTimeoutMs);
    Note = " (OpenMP unavailable; compiled serial)";
  }
  if (!C.Started || C.ExecFailed) {
    R.Status = NativeStatus::NoCompiler;
    R.Detail = "compiler '" + CC + "' could not be executed";
    Cleanup();
    return R;
  }
  if (C.TimedOut) {
    R.Status = NativeStatus::CompileError;
    R.Detail = "compilation exceeded " +
               std::to_string(Options.CompileTimeoutMs) + " ms";
    Cleanup();
    return R;
  }
  if (C.ExitCode != 0) {
    R.Status = NativeStatus::CompileError;
    R.Detail = "compiler exited " + std::to_string(C.ExitCode) + ": " +
               excerpt(C.Output);
    Cleanup();
    return R;
  }

  // Run.
  ProcResult Run = runProcess({Bin}, Options.RunTimeoutMs);
  if (!Run.Started) {
    R.Status = NativeStatus::RunError;
    R.Detail = "could not start " + Bin;
    Cleanup();
    return R;
  }
  if (Run.TimedOut) {
    R.Status = NativeStatus::RunTimeout;
    R.Detail = "binary exceeded " + std::to_string(Options.RunTimeoutMs) +
               " ms and was killed";
    Cleanup();
    return R;
  }
  if (Run.Signal != 0) {
    R.Status = NativeStatus::RunError;
    R.Detail = "binary killed by signal " + std::to_string(Run.Signal);
    Cleanup();
    return R;
  }
  R.ExitCode = Run.ExitCode;

  // Parse the IRLT_RESULT line.
  size_t Pos = Run.Output.find("IRLT_RESULT ");
  if (Pos == std::string::npos) {
    R.Status = NativeStatus::BadOutput;
    R.Detail = "no IRLT_RESULT line (exit " + std::to_string(Run.ExitCode) +
               "): " + excerpt(Run.Output);
    Cleanup();
    return R;
  }
  size_t End = Run.Output.find('\n', Pos);
  std::string Line = Run.Output.substr(
      Pos + strlen("IRLT_RESULT "),
      End == std::string::npos ? std::string::npos
                               : End - Pos - strlen("IRLT_RESULT "));
  ErrorOr<json::JsonValue> J = json::JsonValue::parse(Line);
  if (!J || !J->isObject()) {
    R.Status = NativeStatus::BadOutput;
    R.Detail = "unparseable IRLT_RESULT: " + excerpt(Line);
    Cleanup();
    return R;
  }
  R.Match = J->boolOr("match", false);
  R.ChecksumOriginal = hexField(*J, "checksum_original");
  R.ChecksumTransformed = hexField(*J, "checksum_transformed");
  R.OobOriginal = static_cast<uint64_t>(J->intOr("oob_original", 0));
  R.OobTransformed = static_cast<uint64_t>(J->intOr("oob_transformed", 0));
  R.NsOriginal = static_cast<uint64_t>(J->intOr("ns_original", 0));
  R.NsTransformed = static_cast<uint64_t>(J->intOr("ns_transformed", 0));
  R.Threads = J->intOr("threads", 1);
  R.Cells = J->intOr("cells", 0);

  if (Run.ExitCode == 0 && R.Match) {
    R.Status = NativeStatus::Ok;
    R.Detail = "match" + Note;
  } else if (Run.ExitCode == 7 || !R.Match) {
    R.Status = NativeStatus::Mismatch;
    R.Detail = "harness reported mismatch" + Note;
  } else {
    R.Status = NativeStatus::RunError;
    R.Detail = "unexpected exit " + std::to_string(Run.ExitCode) + Note;
  }
  Cleanup();
  return R;
}
