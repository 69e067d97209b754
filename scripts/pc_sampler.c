/* SIGPROF program-counter sampler, loaded into a process with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC scripts/pc_sampler.c -o pc_sampler.so
 *   PC_SAMPLER_OUT=samples.txt PC_SAMPLER_HZ=1000 \
 *       LD_PRELOAD=./pc_sampler.so ./program ...
 *
 * setitimer(ITIMER_PROF) delivers SIGPROF after every 1/HZ s of the
 * process's CPU time, to whichever thread is running; the handler stores
 * the interrupted program counter. At exit the samples are written one
 * per line: "exe 0x<offset>" for a PC in the main executable, with the
 * offset ready for `addr2line -e <executable>`, and "lib <path>" for a
 * PC in a shared object. Without PC_SAMPLER_OUT the library does
 * nothing. scripts/pc_profile.py builds, runs and reads it.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t *samples;
static unsigned long taken;
static const char *out_path;

static void on_prof(int sig, siginfo_t *info, void *context) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = (const ucontext_t *)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
  const unsigned long slot =
      __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (slot < MAX_SAMPLES) {
    samples[slot] = pc;
  }
}

__attribute__((constructor)) static void start_sampling(void) {
  out_path = getenv("PC_SAMPLER_OUT");
  if (out_path == NULL) {
    return;
  }
  const char *hz_text = getenv("PC_SAMPLER_HZ");
  const long hz = hz_text != NULL ? atol(hz_text) : 1000;
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  if (samples == NULL || hz <= 0 || hz > 100000) {
    out_path = NULL;
    return;
  }
  struct sigaction action = {0};
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval timer = {0};
  timer.it_interval.tv_usec = 1000000 / hz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

/* Where one PC lands: the object it belongs to and its load bias. */
struct lookup {
  uintptr_t pc;
  int found;
  int is_exe;
  uintptr_t bias;
  const char *name;
};

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  struct lookup *l = data;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (ph->p_type == PT_LOAD && l->pc >= lo && l->pc < lo + ph->p_memsz) {
      l->found = 1;
      /* The main executable is the first object and has no name. */
      l->is_exe = info->dlpi_name == NULL || info->dlpi_name[0] == '\0';
      l->bias = info->dlpi_addr;
      l->name = info->dlpi_name;
      return 1;
    }
  }
  return 0;
}

__attribute__((destructor)) static void write_samples(void) {
  if (out_path == NULL) {
    return;
  }
  const struct itimerval off = {0};
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  FILE *out = fopen(out_path, "w");
  if (out == NULL) {
    return;
  }
  unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (unsigned long i = 0; i < n; ++i) {
    struct lookup l = {samples[i], 0, 0, 0, NULL};
    dl_iterate_phdr(find_object, &l);
    if (l.found && l.is_exe) {
      fprintf(out, "exe 0x%lx\n", (unsigned long)(samples[i] - l.bias));
    } else {
      fprintf(out, "lib %s\n", l.found && l.name ? l.name : "?");
    }
  }
  fclose(out);
}
