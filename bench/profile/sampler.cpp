// rockfs_sampler: a SIGPROF sampler loaded with LD_PRELOAD. Every ~1 ms of
// process CPU time (the kernel rounds the interval up to its tick) it records
// the interrupted pc and the return addresses on the frame-pointer chain, so
// the profiled program must be built with -fno-omit-frame-pointer. At exit it
// writes rockfs-prof.<pid>.txt to the working directory: the process's
// memory map, then one line per sample, leaf first. fold.py symbolizes and
// folds that file.
//
//   LD_PRELOAD=build/bench/profile/librockfs_sampler.so <program> <args>
//   python3 bench/profile/fold.py rockfs-prof.<pid>.txt --root 'Recover::op'
//
// Only the main thread's stack is walked; a sample taken on any other thread
// records its pc alone. Frames of code built without frame pointers (libc's
// memcpy, say) are reported at their pc, but the walk then skips their
// caller. Samples past the buffer (64 MiB) are dropped and counted.
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr std::size_t kMaxDepth = 256;
constexpr std::size_t kWords = std::size_t{1} << 23;  // depth, then the frames
constexpr long kIntervalUs = 1000;

std::uintptr_t* words = nullptr;  // mapped once, touched as samples land
std::atomic<std::size_t> used{0};
std::atomic<std::size_t> dropped{0};
std::uintptr_t stack_lo = 0;  // the main thread's stack
std::uintptr_t stack_hi = 0;

void on_sample(int, siginfo_t*, void* context) {
  const mcontext_t& regs = static_cast<const ucontext_t*>(context)->uc_mcontext;
  std::uintptr_t frames[kMaxDepth];
  std::size_t depth = 0;
  frames[depth++] = static_cast<std::uintptr_t>(regs.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(regs.gregs[REG_RSP]);
  if (sp >= stack_lo && sp < stack_hi) {
    // Each frame holds the caller's frame pointer, then the return address;
    // frame pointers grow towards the stack's base.
    std::uintptr_t fp = static_cast<std::uintptr_t>(regs.gregs[REG_RBP]);
    while (depth < kMaxDepth && fp >= sp && fp % sizeof(fp) == 0 &&
           fp + 2 * sizeof(fp) <= stack_hi) {
      const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
      if (frame[1] == 0) break;
      frames[depth++] = frame[1];
      if (frame[0] <= fp) break;
      fp = frame[0];
    }
  }
  std::size_t at = used.load(std::memory_order_relaxed);
  do {
    if (at + 1 + depth > kWords) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } while (!used.compare_exchange_weak(at, at + 1 + depth, std::memory_order_relaxed));
  words[at] = depth;
  std::memcpy(&words[at + 1], frames, depth * sizeof(frames[0]));
}

__attribute__((constructor)) void start() {
  void* mem = mmap(nullptr, kWords * sizeof(std::uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  pthread_attr_t attr;
  void* base = nullptr;
  std::size_t size = 0;
  if (mem == MAP_FAILED || pthread_getattr_np(pthread_self(), &attr) != 0) {
    std::fputs("rockfs_sampler: setup failed, not sampling\n", stderr);
    return;
  }
  pthread_attr_getstack(&attr, &base, &size);
  pthread_attr_destroy(&attr);
  words = static_cast<std::uintptr_t*>(mem);
  stack_lo = reinterpret_cast<std::uintptr_t>(base);
  stack_hi = stack_lo + size;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_sample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every{{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &every, nullptr);
}

__attribute__((destructor)) void finish() {
  if (words == nullptr) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof(path), "rockfs-prof.%ld.txt", static_cast<long>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (out == nullptr || maps == nullptr) {
    std::fprintf(stderr, "rockfs_sampler: cannot write %s\n", path);
    if (out != nullptr) std::fclose(out);
    if (maps != nullptr) std::fclose(maps);
    return;
  }
  std::fputs("# rockfs_sampler 1: M <maps line> | S <leaf pc> <return addresses...>\n", out);
  char line[4096];
  while (std::fgets(line, sizeof(line), maps) != nullptr) std::fprintf(out, "M %s", line);
  std::fclose(maps);
  const std::size_t end = used.load();
  std::size_t samples = 0;
  for (std::size_t at = 0; at < end; at += 1 + words[at], ++samples) {
    std::fputc('S', out);
    for (std::size_t i = 1; i <= words[at]; ++i) {
      std::fprintf(out, " %lx", static_cast<unsigned long>(words[at + i]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stderr, "rockfs_sampler: %zu samples (%zu dropped) in %s\n", samples,
               dropped.load(), path);
}

}  // namespace
