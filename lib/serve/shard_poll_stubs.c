/* poll(2) for the shard event loop.  select(2) cannot watch an fd
   numbered FD_SETSIZE (1024) or above — OCaml's Unix.select raises
   EINVAL — so a shard owning that many connections stopped serving.
   poll has no such bound.

   The OCaml side keeps the fds in an array that lives across wakeups,
   and this stub writes each fd's revents into a caller-owned int array,
   so a wakeup allocates nothing on the OCaml heap.  The fds are copied
   into a C pollfd array (on the stack for small sets) before the
   runtime lock is released around the blocking call. */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define STACK_FDS 64

/* [selest_shard_poll fds revents n timeout_ms]: wait until one of the
   first [n] fds is readable (or hung up, or in error), at most
   [timeout_ms] ms.  Returns the number of ready fds, 0 on a timeout or
   an interrupted wait; raises Unix_error on any other failure. */
CAMLprim value selest_shard_poll(value fds, value revents, value n_v, value timeout_v)
{
  CAMLparam2(fds, revents);
  intnat n = Long_val(n_v);
  int timeout = Int_val(timeout_v);
  struct pollfd stack[STACK_FDS];
  struct pollfd *p = stack;
  if (n > STACK_FDS) {
    p = malloc((size_t)n * sizeof *p);
    if (p == NULL) caml_raise_out_of_memory();
  }
  for (intnat i = 0; i < n; i++) {
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = POLLIN;
    p[i].revents = 0;
  }
  caml_enter_blocking_section();
  int r = poll(p, (nfds_t)n, timeout);
  int err = errno;
  caml_leave_blocking_section();
  /* immediate ints: no write barrier needed */
  for (intnat i = 0; i < n; i++) Field(revents, i) = Val_int(r > 0 ? p[i].revents : 0);
  if (p != stack) free(p);
  if (r < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    errno = err;
    caml_uerror("poll", Nothing);
  }
  CAMLreturn(Val_int(r));
}
