/* The text reply of a freshly computed estimate, "OK " ^ %.17g ^ "\n",
   built in one OCaml allocation.

   [caml_format_float] formats through snprintf and allocates its
   result, which the caller then copies into the reply: two strings and
   a full printf per miss.  Here a double v = m * 2^e (m < 2^53) is
   scaled by 10^s, s = 16 - X, X = floor(log10 |v|), as the exact
   fraction num / den of two 128-bit integers; the quotient is the 17
   significant digits and the remainder rounds them, half to even,
   exactly as glibc's printf rounds in the default rounding mode.  The
   digits are then laid out by the %g rules (style e when X < -4 or
   X >= 17, trailing zeros and a bare point removed).  Whenever the
   fraction does not fit in 127 bits, for zero, subnormals, infinities
   and NaN, and on compilers without __int128, the digits come from
   snprintf("%.17g"), the call [caml_format_float] makes. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define PREFIX "OK "
#define PREFIX_LEN 3

#if defined(__SIZEOF_INT128__)

typedef unsigned __int128 u128;

static const uint64_t pow10_u64[20] = {
  1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
  100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
  1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
  1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
  1000000000000000000ULL, 10000000000000000000ULL
};

/* Bit length of 10^k, k = 0..38. */
static const unsigned char pow10_bits[39] = {
  1, 4, 7, 10, 14, 17, 20, 24, 27, 30, 34, 37, 40, 44, 47, 50, 54, 57, 60,
  64, 67, 70, 74, 77, 80, 84, 87, 90, 94, 97, 100, 103, 107, 110, 113, 117,
  120, 123, 127
};

static u128 pow10_u128(int k)
{
  return k < 20 ? (u128)pow10_u64[k]
                : (u128)pow10_u64[k - 19] * pow10_u64[19];
}

#define D16 10000000000000000ULL   /* 10^16 */
#define D17 100000000000000000ULL  /* 10^17 */

/* The 17 rounded significant digits of m * 2^e as an integer in
   [10^16, 10^17), with [*x] its decimal exponent; 0 when the scaling
   does not fit. */
static uint64_t digits17(uint64_t m, int e, int *x)
{
  int X = *x;
  for (int tries = 0; tries < 3; tries++) {
    int s = 16 - X;
    int pe = e > 0 ? e : 0, ne = e < 0 ? -e : 0;
    int ps = s > 0 ? s : 0, ns = s < 0 ? -s : 0;
    if (ps > 38 || ns > 38) return 0;
    if (53 + pe + pow10_bits[ps] > 127 || ne + pow10_bits[ns] > 126) return 0;
    u128 num = ((u128)m << pe) * pow10_u128(ps);
    u128 q, r, half;
    int up;
    if (ns == 0) {
      /* den = 2^ne: a shift */
      if (ne == 0) { q = num; r = 0; half = 1; }
      else { q = num >> ne; r = num & (((u128)1 << ne) - 1); half = (u128)1 << (ne - 1); }
      up = ne > 0 && (r > half || (r == half && (q & 1)));
    } else {
      u128 den = pow10_u128(ns) << ne;
      q = num / den;
      r = num % den;
      u128 r2 = r << 1;
      up = r2 > den || (r2 == den && (q & 1));
    }
    if (q >= D17) { X++; continue; }
    if (q < D16) { X--; continue; }
    uint64_t d = (uint64_t)q + (uint64_t)up;
    if (d == D17) { d = D16; X++; }
    *x = X;
    return d;
  }
  return 0;
}

/* Lay out [d]'s 17 digits at decimal exponent [X] by the %.17g rules. */
static int layout(char *out, int neg, uint64_t d, int X)
{
  char dg[17];
  for (int i = 16; i >= 0; i--) { dg[i] = (char)('0' + d % 10); d /= 10; }
  int nd = 17;
  while (nd > 1 && dg[nd - 1] == '0') nd--;
  char *p = out;
  if (neg) *p++ = '-';
  if (X < -4 || X >= 17) {
    *p++ = dg[0];
    if (nd > 1) { *p++ = '.'; memcpy(p, dg + 1, nd - 1); p += nd - 1; }
    *p++ = 'e';
    int ax = X;
    if (ax < 0) { *p++ = '-'; ax = -ax; } else *p++ = '+';
    if (ax >= 100) { *p++ = (char)('0' + ax / 100); ax %= 100; }
    *p++ = (char)('0' + ax / 10);
    *p++ = (char)('0' + ax % 10);
  } else if (X >= 0) {
    memcpy(p, dg, X + 1); p += X + 1;
    if (nd > X + 1) { *p++ = '.'; memcpy(p, dg + X + 1, nd - X - 1); p += nd - X - 1; }
  } else {
    *p++ = '0'; *p++ = '.';
    for (int i = 0; i < -X - 1; i++) *p++ = '0';
    memcpy(p, dg, nd); p += nd;
  }
  return (int)(p - out);
}

static int format17(char *out, size_t cap, double v)
{
  uint64_t bits;
  memcpy(&bits, &v, 8);
  int biased = (int)((bits >> 52) & 0x7ff);
  if (biased != 0 && biased != 0x7ff) {
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int e = biased - 1075;
    int X = (int)floor(log10(fabs(v)));
    uint64_t d = digits17(m, e, &X);
    if (d != 0) return layout(out, (int)(bits >> 63), d, X);
  }
  return snprintf(out, cap, "%.17g", v);
}

#else

static int format17(char *out, size_t cap, double v)
{
  return snprintf(out, cap, "%.17g", v);
}

#endif

CAMLprim value selest_serve_render_ok(value v)
{
  char buf[64];
  memcpy(buf, PREFIX, PREFIX_LEN);
  int n = format17(buf + PREFIX_LEN, sizeof buf - PREFIX_LEN - 1, Double_val(v));
  buf[PREFIX_LEN + n] = '\n';
  return caml_alloc_initialized_string(PREFIX_LEN + n + 1, buf);
}
