/* Two calls the OCaml Unix library does not expose: a monotonic clock,
   so a wall-clock step cannot distort a timing, and wait4, which
   returns the peak resident set size of the reaped child. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}

/* Reap [pid]: (exit code, peak RSS in KiB). A child killed by a signal
   reports 128 + the signal number, as a shell does. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;

  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    errno = err;
    caml_failwith("wait4");
  }
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
