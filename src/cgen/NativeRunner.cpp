//===- cgen/NativeRunner.cpp - Compile-and-run execution of emitted C -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cgen/NativeRunner.h"

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace irlt;
using namespace irlt::cgen;

namespace {

using Clock = std::chrono::steady_clock;

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

/// Appends what \p Fd holds now to \p Out (up to OutputCap) without
/// blocking. \returns false once the writers have all closed it.
bool drain(int Fd, std::string &Out) {
  char Buf[4096];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return false;
    if (N < 0)
      return errno == EAGAIN || errno == EINTR;
    if (Out.size() < OutputCap)
      Out.append(Buf, Buf + std::min<size_t>(static_cast<size_t>(N),
                                             OutputCap - Out.size()));
  }
}

/// Runs \p Argv with stdout+stderr captured, killing the whole process
/// group once \p Until has passed; nothing starts when it already has.
/// \p Env, when given, is the child's whole environment. Everything the
/// child needs is built before the fork: the child of a multi-threaded
/// process may only make async-signal-safe calls.
ProcResult runProcess(const std::vector<std::string> &Argv,
                      Clock::time_point Until,
                      const std::vector<std::string> *Env = nullptr) {
  ProcResult R;
  if (Clock::now() >= Until) {
    R.Started = true;
    R.TimedOut = true;
    return R;
  }

  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  std::vector<char *> Envp;
  if (Env) {
    for (const std::string &E : *Env)
      Envp.push_back(const_cast<char *>(E.c_str()));
    Envp.push_back(nullptr);
  }

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
    if (Env)
      execvpe(Args[0], Args.data(), Envp.data());
    else
      execvp(Args[0], Args.data());
    _exit(ExecFailCode);
  }

  // Parent. Setting the group here too closes the race with a kill
  // that comes before the child has run.
  R.Started = true;
  setpgid(Pid, Pid);
  close(Pipe[1]);
  fcntl(Pipe[0], F_SETFL, O_NONBLOCK);
  // Readable once the child exits; -1 on kernels before Linux 5.3.
  int PidFd = static_cast<int>(syscall(SYS_pidfd_open, Pid, 0));

  bool Exited = false, PipeOpen = true;
  int Status = 0;
  for (;;) {
    if (PipeOpen)
      PipeOpen = drain(Pipe[0], R.Output);
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Exited = true;
      break;
    }
    auto Now = Clock::now();
    if (Now >= Until) {
      kill(-Pid, SIGKILL);
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      R.TimedOut = true;
      break;
    }
    // Sleep until the child writes or exits. Without a pidfd nothing
    // signals an exit while a grandchild still holds the pipe, or after
    // the pipe has closed, so then the wait is a short one.
    auto Left = std::chrono::ceil<std::chrono::milliseconds>(Until - Now);
    int WaitMs = static_cast<int>(std::min<int64_t>(Left.count(), 1 << 30));
    if (PidFd < 0)
      WaitMs = std::min(WaitMs, PipeOpen ? 10 : 1);
    pollfd Fds[2];
    nfds_t NumFds = 0;
    if (PipeOpen)
      Fds[NumFds++] = {Pipe[0], POLLIN, 0};
    if (PidFd >= 0)
      Fds[NumFds++] = {PidFd, POLLIN, 0};
    poll(Fds, NumFds, WaitMs);
  }

  // Drain whatever arrived between the last read and exit.
  if (PipeOpen)
    drain(Pipe[0], R.Output);
  close(Pipe[0]);
  if (PidFd >= 0)
    close(PidFd);

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
  ProcResult R =
      runProcess({CC, "--version"}, Clock::now() + std::chrono::seconds(10));
  return R.Started && !R.TimedOut && R.ExitCode == 0;
}

/// The caller's environment with \p Name set to \p Value; when \p Keep,
/// a value the caller set wins.
std::vector<std::string> environmentWith(const std::string &Name,
                                         const std::string &Value,
                                         bool Keep) {
  std::string Prefix = Name + "=";
  std::vector<std::string> Env;
  bool Set = false;
  for (char **E = environ; *E; ++E) {
    bool Match = std::string_view(*E).starts_with(Prefix);
    Set = Set || Match;
    if (!Match || Keep)
      Env.emplace_back(*E);
  }
  if (!Set || !Keep)
    Env.push_back(Prefix + Value);
  return Env;
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

/// The text after every "IRLT_RESULT " tag in \p Output, to its line end.
std::vector<std::string> resultLines(const std::string &Output) {
  constexpr std::string_view Tag = "IRLT_RESULT ";
  std::vector<std::string> Lines;
  size_t Pos = Output.find(Tag);
  while (Pos != std::string::npos) {
    size_t Begin = Pos + Tag.size();
    size_t End = Output.find('\n', Begin);
    Lines.push_back(Output.substr(
        Begin, End == std::string::npos ? std::string::npos : End - Begin));
    Pos = End == std::string::npos ? End : Output.find(Tag, End);
  }
  return Lines;
}

/// One section's result from its IRLT_RESULT record and the status its
/// section returned.
NativeResult sectionResult(const std::string &Line, int ExitCode,
                           const std::string &Note) {
  NativeResult S;
  S.ExitCode = ExitCode;
  ErrorOr<json::JsonValue> J = json::JsonValue::parse(Line);
  if (!J || !J->isObject()) {
    S.Status = NativeStatus::BadOutput;
    S.Detail = "unparseable IRLT_RESULT: " + excerpt(Line);
    return S;
  }
  S.Match = J->boolOr("match", false);
  S.ChecksumOriginal = hexField(*J, "checksum_original");
  S.ChecksumTransformed = hexField(*J, "checksum_transformed");
  S.OobOriginal = static_cast<uint64_t>(J->intOr("oob_original", 0));
  S.OobTransformed = static_cast<uint64_t>(J->intOr("oob_transformed", 0));
  S.NsOriginal = static_cast<uint64_t>(J->intOr("ns_original", 0));
  S.NsTransformed = static_cast<uint64_t>(J->intOr("ns_transformed", 0));
  S.Threads = J->intOr("threads", 1);
  S.Cells = J->intOr("cells", 0);

  if (ExitCode == 0 && S.Match) {
    S.Status = NativeStatus::Ok;
    S.Detail = "match" + Note;
  } else if (ExitCode == 7 || !S.Match) {
    S.Status = NativeStatus::Mismatch;
    S.Detail = "harness reported mismatch" + Note;
  } else {
    S.Status = NativeStatus::RunError;
    S.Detail = "unexpected exit " + std::to_string(ExitCode) + Note;
  }
  return S;
}

/// Splits a finished run into per-section results (see NativeResult::
/// Sections). Each section's main returns 0 (match) or 7 and the program
/// stops at the first nonzero one, so every record but the last comes
/// from a section that returned 0, and the way the process ended belongs
/// to the section of the last record or, when it was killed, to the one
/// after it.
std::vector<NativeResult> splitSections(const ProcResult &Run,
                                        unsigned NumSections,
                                        const std::string &TimeoutMs,
                                        const std::string &Note) {
  std::vector<std::string> Lines = resultLines(Run.Output);
  size_t Last = std::max(NumSections, 1u) - 1;
  bool Killed = Run.TimedOut || Run.Signal != 0;
  std::vector<NativeResult> Sections;
  for (size_t I = 0; I <= Last; ++I) {
    NativeResult S;
    bool KilledHere = Killed && I == std::min(Lines.size(), Last);
    if (KilledHere && Run.TimedOut) {
      S.Status = NativeStatus::RunTimeout;
      S.Detail = "binary exceeded " + TimeoutMs +
                 " ms and was killed";
    } else if (KilledHere) {
      S.Status = NativeStatus::RunError;
      S.Detail = "binary killed by signal " + std::to_string(Run.Signal);
    } else if (I >= Lines.size()) {
      S.Status = NativeStatus::BadOutput;
      S.ExitCode = Run.ExitCode;
      S.Detail = "no IRLT_RESULT line (exit " + std::to_string(Run.ExitCode) +
                 "): " + excerpt(Run.Output);
    } else {
      bool EndedHere = !Killed && (I + 1 == Lines.size() || I == Last);
      S = sectionResult(Lines[I], EndedHere ? Run.ExitCode : 0, Note);
    }
    Sections.push_back(std::move(S));
    if (Sections.back().Status != NativeStatus::Ok)
      break;
  }
  return Sections;
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
  // A run that ends before any section does: one entry, the result itself.
  auto failed = [&R](NativeStatus S, std::string Detail) {
    R.Status = S;
    R.Detail = std::move(Detail);
    R.Sections = {R};
    return R;
  };
  // When a process started now must be done: after \p TimeoutMs, or at
  // Options.Deadline if that comes first (never before it, so a process
  // killed for the deadline is killed past it).
  auto until = [&Options](uint64_t TimeoutMs) {
    Clock::time_point T = Clock::now() + std::chrono::milliseconds(TimeoutMs);
    return Options.Deadline ? std::min(T, *Options.Deadline) : T;
  };
  // The milliseconds a process started now has, for diagnostics.
  auto budgetMs = [](Clock::time_point Until) {
    return std::to_string(std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(
               Until - Clock::now())
               .count()));
  };

  std::string CC = Options.Compiler.empty() ? probeCompiler()
                                            : Options.Compiler;
  if (CC.empty())
    return failed(NativeStatus::NoCompiler,
                  "no host C compiler (set IRLT_CC or install cc/gcc/clang)");

  // Scratch directory.
  std::string Dir = Options.WorkDir;
  bool OwnDir = false;
  if (Dir.empty()) {
    const char *Tmp = getenv("TMPDIR");
    std::string Templ =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/irlt-cgen-XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    if (!mkdtemp(Buf.data()))
      return failed(NativeStatus::RunError,
                    std::string("mkdtemp failed: ") + strerror(errno));
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
    std::error_code EC;
    if (OwnDir)
      std::filesystem::remove_all(Dir, EC);
  };
  // A compile killed at the deadline leaves the compiler's own temporary
  // files behind, so in a scratch directory of ours they go there too.
  std::vector<std::string> CompileEnv;
  if (OwnDir)
    CompileEnv = environmentWith("TMPDIR", Dir, /*Keep=*/false);
  const std::vector<std::string> *CompileEnvOrNull =
      OwnDir ? &CompileEnv : nullptr;
  auto fail = [&](NativeStatus S, std::string Detail) {
    Cleanup();
    return failed(S, std::move(Detail));
  };

  {
    std::ofstream Out(Src, std::ios::binary);
    Out << Program;
    if (!Out)
      return fail(NativeStatus::RunError, "cannot write " + Src);
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
  Clock::time_point CompileUntil = until(Options.CompileTimeoutMs);
  std::string CompileMs = budgetMs(CompileUntil);
  ProcResult C =
      runProcess(CompileArgv(Options.OpenMP), CompileUntil, CompileEnvOrNull);
  std::string Note;
  if (Options.OpenMP && C.Started && !C.TimedOut && C.ExitCode != 0 &&
      !C.ExecFailed) {
    // Some host compilers lack libomp; fall back to serial.
    CompileUntil = until(Options.CompileTimeoutMs);
    CompileMs = budgetMs(CompileUntil);
    C = runProcess(CompileArgv(false), CompileUntil, CompileEnvOrNull);
    Note = " (OpenMP unavailable; compiled serial)";
  }
  if (!C.Started || C.ExecFailed)
    return fail(NativeStatus::NoCompiler,
                "compiler '" + CC + "' could not be executed");
  if (C.TimedOut)
    return fail(NativeStatus::CompileError,
                "compilation exceeded " + CompileMs + " ms");
  if (C.ExitCode != 0)
    return fail(NativeStatus::CompileError,
                "compiler exited " + std::to_string(C.ExitCode) + ": " +
                    excerpt(C.Output));

  // Run.
  Clock::time_point RunUntil =
      until(Options.RunTimeoutMs * std::max(Options.Sections, 1u));
  std::string RunMs = budgetMs(RunUntil);
  // Spinning OpenMP workers stretch a 2-4 ms harness run to 24-59 ms.
  std::vector<std::string> Env =
      environmentWith("OMP_WAIT_POLICY", "passive", /*Keep=*/true);
  ProcResult Run = runProcess({Bin}, RunUntil, &Env);
  if (!Run.Started)
    return fail(NativeStatus::RunError, "could not start " + Bin);

  std::vector<NativeResult> Sections =
      splitSections(Run, Options.Sections, RunMs, Note);
  NativeResult First = Sections.front();
  First.ExitCode = Run.ExitCode;
  First.SourcePath = R.SourcePath;
  First.Sections = std::move(Sections);
  Cleanup();
  return First;
}
