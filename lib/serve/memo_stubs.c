/* The raw-body memo's byte kernels: a word-at-a-time hash of a request
   body, and an exact comparison with, and a copy into, the memo's ring
   (a char bigarray).  All take and return untagged integers and are
   [@@noalloc], so a probe costs a pass over the body's 8-byte words
   and no allocation. */

#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

static inline uint64_t rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/* Fold 8-byte words (the tail zero-padded, the length mixed in), then
   the splitmix64 finalizer, so the low bits that pick a memo set depend
   on every byte. */
CAMLprim intnat selest_memo_hash_untagged(value buf, intnat off, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(buf) + off;
  uint64_t h = (uint64_t)len * 0x9e3779b97f4a7c15ULL;
  intnat i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    memcpy(&w, p + i, 8);
    h = rotl(h ^ w, 29) * 0xbf58476d1ce4e5b9ULL;
  }
  if (i < len) {
    uint64_t w = 0;
    memcpy(&w, p + i, (size_t)(len - i));
    h = rotl(h ^ w, 29) * 0xbf58476d1ce4e5b9ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return (intnat)(h >> 2); /* non-negative as an OCaml int */
}

CAMLprim value selest_memo_hash(value buf, value off, value len)
{
  return Val_long(selest_memo_hash_untagged(buf, Long_val(off), Long_val(len)));
}

/* Do [ring[roff..roff+len)] and [buf[boff..boff+len)] hold the same
   bytes? */
CAMLprim intnat selest_memo_equal_untagged(value ring, intnat roff, value buf, intnat boff,
                                           intnat len)
{
  return memcmp((const char *)Caml_ba_data_val(ring) + roff,
                (const char *)Bytes_val(buf) + boff, (size_t)len) == 0;
}

CAMLprim value selest_memo_equal(value ring, value roff, value buf, value boff, value len)
{
  return Val_long(selest_memo_equal_untagged(ring, Long_val(roff), buf, Long_val(boff),
                                             Long_val(len)));
}

/* Copy [buf[boff..boff+len)] to [ring[roff..)]. */
CAMLprim value selest_memo_store_untagged(value ring, intnat roff, value buf, intnat boff,
                                          intnat len)
{
  memcpy((char *)Caml_ba_data_val(ring) + roff, (const char *)Bytes_val(buf) + boff,
         (size_t)len);
  return Val_unit;
}

CAMLprim value selest_memo_store(value ring, value roff, value buf, value boff, value len)
{
  return selest_memo_store_untagged(ring, Long_val(roff), buf, Long_val(boff), Long_val(len));
}
