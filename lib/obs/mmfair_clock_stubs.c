/* Monotonic clock stub: CLOCK_MONOTONIC nanoseconds as an int64.
 *
 * The benches and the serving daemon must time against a clock that
 * NTP steps cannot move: every bench's timing loop and churnd's
 * staleness accounting read this one, without an opam dependency.
 * The epoch is unspecified: only differences are meaningful. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <stdint.h>
#include <time.h>

int64_t mmfair_clock_monotonic_ns_unboxed(void)
{
  struct timespec ts;
#if defined(CLOCK_MONOTONIC)
  clock_gettime(CLOCK_MONOTONIC, &ts);
#else
  /* No monotonic clock on this platform: degrade to the realtime
     clock rather than failing to build. */
  clock_gettime(CLOCK_REALTIME, &ts);
#endif
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

CAMLprim value mmfair_clock_monotonic_ns_byte(value unit)
{
  (void)unit;
  return caml_copy_int64(mmfair_clock_monotonic_ns_unboxed());
}
