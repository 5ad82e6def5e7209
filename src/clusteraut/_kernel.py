"""Term-map kernels, in pure Python.

A term map is a dict from keys (e1, e2, e3, e4, k) to nonzero Python ints:
the term c * t^k * y1^e1 y2^e2 y3^e3 y4^e4.  Over the integers k is always
0; over the surrogate ring Z[t]/(t^m - 1) the power of t is one more
exponent, so the kernel needs no coefficient ring.  Functions that take m
(m > 0) apply t^m -> 1 to every map they build (``wrap_t``).

The term budget counts y-monomials: the terms of one monomial at several
powers of t are one term with a coefficient in Z[t]/(t^m - 1).  A map has
at least as many keys as monomials, so the monomials are counted only when
the keys exceed a bound.

Exact division and integer powers work on packed keys internally (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  A ``Packing`` maps a key to one int holding the
signed fields (wdeg, e1, e4, e2, e3, -k), most significant first.  The map
is linear, so a monomial product is an int addition, and comparing two keys
compares their ``order_key`` tuples.  The field width is chosen per call
from the exponent bounds of the inputs, so the packing is exact for every
input.

Division picks each leading term of the remainder from a max-heap of its
packed keys with lazy deletion (Monagan & Pearce, "Sparse polynomial
division using a heap", J. Symb. Comput. 2011) instead of rescanning the
remainder.  The remainder itself stays a dict, so the quotient, the term
counts and the work counter match the plain leading-term elimination step
by step.  Term maps enter and leave every function with tuple keys.

The normal-form rewriter expands y1^n y3^n into (y2^a + 1)^n (or y2^n y4^n
into (y3^b + 1)^n) with the coefficients of one binomial row, built in O(n)
steps and kept in a bounded cache, and takes each child's weighted degree
from its parent's by a fixed step.  Input that is already normal is only
ordered by weighted degree.
"""
from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush

from .budget import WORK_FACTOR
from .errors import BudgetExceeded, NotDivisible

IMPLEMENTATION = "python"


class Packing:
    """Keys (e1, e2, e3, e4, k) <-> ints holding the signed fields
    (wdeg, e1, e4, e2, e3, -k).

    Exact (a bijection that adds and orders like the tuples) for every key
    whose entries are at most ``bound`` in absolute value.  The wdeg field is
    the most significant one, so it needs no bound; with zero weights it is
    always 0.  The power of t has weight 0.
    """

    __slots__ = ("mults", "width", "mask", "offset")

    def __init__(self, weights: tuple, bound: int):
        w1, w2, w3, w4 = weights
        # fields in [-2^(width-1), 2^(width-1)); bound < 2^(width-1)
        width = bound.bit_length() + 1
        top = 5 * width
        self.mults = (
            (w1 << top) + (1 << 4 * width),
            (w2 << top) + (1 << 2 * width),
            (w3 << top) + (1 << width),
            (w4 << top) + (1 << 3 * width),
        )
        self.width = width
        self.mask = (1 << width) - 1
        # adding half to every field makes it a plain base-2^width digit
        half = 1 << (width - 1)
        self.offset = sum(half << i * width for i in range(5))

    def pack(self, key: tuple) -> int:
        c1, c2, c3, c4 = self.mults
        e1, e2, e3, e4, k = key
        return c1 * e1 + c2 * e2 + c3 * e3 + c4 * e4 - k

    def unpack(self, packed: int) -> tuple:
        width, mask = self.width, self.mask
        half = (mask + 1) >> 1
        packed += self.offset
        k = half - (packed & mask)
        packed >>= width
        e3 = (packed & mask) - half
        packed >>= width
        e2 = (packed & mask) - half
        packed >>= width
        e4 = (packed & mask) - half
        packed >>= width
        return ((packed & mask) - half, e2, e3, e4, k)


def add_terms(ta: dict, tb: dict) -> dict:
    out = dict(ta)
    for k, v in tb.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def neg_terms(ta: dict) -> dict:
    return {k: -v for k, v in ta.items()}


def scale_terms(ta: dict, key: tuple, coeff: int) -> dict:
    """Multiply by the single term coeff * t^k * y^e for key (e, k).  coeff
    must be nonzero."""
    e1, e2, e3, e4, k = key
    return {
        (f1 + e1, f2 + e2, f3 + e3, f4 + e4, j + k): v * coeff
        for (f1, f2, f3, f4, j), v in ta.items()
    }


def wrap_t(tp: dict, m: int) -> dict:
    """tp with t^m -> 1: each power of t taken mod m and like terms merged;
    tp itself when m is 0 or every power already lies in 0 .. m - 1."""
    if not m or all(0 <= key[4] < m for key in tp):
        return tp
    out = {}
    for (e1, e2, e3, e4, k), c in tp.items():
        key = (e1, e2, e3, e4, k % m)
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _monomials(tp: dict) -> int:
    """The number of y-monomials of tp: its size under the term budget."""
    return len({key[:4] for key in tp})


def mul_terms(ta: dict, tb: dict, max_terms: int = 0, m: int = 0) -> dict:
    """ta * tb.  A factor of one y-monomial scales the other without budget
    checks."""
    na, nb = len(ta), len(tb)
    if na == 0 or nb == 0:
        return {}
    if na == 1:
        (key, coeff), = ta.items()
        return wrap_t(scale_terms(tb, key, coeff), m)
    if nb == 1:
        (key, coeff), = tb.items()
        return wrap_t(scale_terms(ta, key, coeff), m)
    if max_terms and na * nb > max_terms * WORK_FACTOR:
        na, nb = _monomials(ta), _monomials(tb)
        if na > 1 < nb and na * nb > max_terms * WORK_FACTOR:
            raise BudgetExceeded(f"product work {na}*{nb} exceeds budget")
    out = {}
    for (a1, a2, a3, a4, a5), va in ta.items():
        for (b1, b2, b3, b4, b5), vb in tb.items():
            k = (a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    out = wrap_t(out, m)
    if max_terms and len(out) > max_terms:
        n = _monomials(out)
        if n > max_terms and _monomials(ta) > 1 < _monomials(tb):
            raise BudgetExceeded(f"product has {n} terms, budget {max_terms}")
    return out


def _mul_packed(ta: dict, tb: dict, max_terms: int) -> dict:
    """mul_terms over the integers on packed keys, for two maps of at least
    two terms each (where mul_terms checks the budget)."""
    na, nb = len(ta), len(tb)
    if max_terms and na * nb > max_terms * WORK_FACTOR:
        raise BudgetExceeded(f"product work {na}*{nb} exceeds budget")
    out = {}
    get = out.get
    for ka, va in ta.items():
        for kb, vb in tb.items():
            k = ka + kb
            s = get(k, 0) + va * vb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    if max_terms and len(out) > max_terms:
        raise BudgetExceeded(f"product has {len(out)} terms, budget {max_terms}")
    return out


def _power(base: dict, k: int, mul) -> dict:
    """base ** k by repeated squaring, k >= 1.  The first factor is taken as
    it is, as multiplying it by the unit term would copy it."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mul(base, base)


def pow_terms(ta: dict, k: int, max_terms: int = 0, m: int = 0) -> dict:
    """ta ** k; over the integers, k >= 2 multiplies packed keys."""
    if k == 0:
        return {(0, 0, 0, 0, 0): 1}
    if m or k == 1:
        base = dict(wrap_t(ta, m))
        return _power(base, k, lambda x, y: _mul_terms(x, y, max_terms, m))
    if not ta:
        return {}
    # every entry of every intermediate key is at most k * span; a product
    # of two maps of two or more terms has two or more terms
    span = max(abs(e) for key in ta for e in key)
    packing = Packing((0, 0, 0, 0), k * span)
    pack, unpack = packing.pack, packing.unpack
    result = _power(
        {pack(key): v for key, v in ta.items()}, k,
        lambda x, y: _mul_packed(x, y, max_terms),
    )
    return {unpack(key): v for key, v in result.items()}


def order_key(key: tuple, weights: tuple) -> tuple:
    """Total order: weighted degree first, then lex on (e1, e4, e2, e3), then
    the lower power of t."""
    e1, e2, e3, e4, k = key
    w1, w2, w3, w4 = weights
    return (w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4, e1, e4, e2, e3, -k)


def max_weighted_degree(tp: dict, weights: tuple) -> int:
    w1, w2, w3, w4 = weights
    return max(w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4 for e1, e2, e3, e4, _ in tp)


def _support_box(tp: dict):
    los = list(next(iter(tp)))
    his = list(los)
    for key in tp:
        for i, e in enumerate(key):
            if e < los[i]:
                los[i] = e
            elif e > his[i]:
                his[i] = e
    return los, his


def exact_div_terms(tp: dict, td: dict, weights: tuple, max_terms: int = 0) -> dict:
    """Exact quotient tp / td over the integers, or raise NotDivisible.

    The power of t is treated as one more variable; ``poly.exact_div``
    calls this over the integers only.

    Standard leading-term elimination under the weighted order, on packed
    keys, with the leading term of the remainder taken from a heap.  Two
    rejection rules keep the non-divisible case finite: coefficient
    divisibility at each step, and the coordinate box Newton(q) = Newton(p) -
    Newton(d).  Leading terms strictly decrease and the box is finite, so
    the loop ends; with the engine's positive weights (a, 1, 1, b) a term
    inside the box is never below the box corner in the order, so no
    separate order floor is needed.
    """
    if not tp:
        return {}
    # exact per-coordinate bounds on any quotient key
    p_lo, p_hi = _support_box(tp)
    d_lo, d_hi = _support_box(td)
    lo1, lo2, lo3, lo4, lo5 = [pl - dl for pl, dl in zip(p_lo, d_lo)]
    hi1, hi2, hi3, hi4, hi5 = [ph - dh for ph, dh in zip(p_hi, d_hi)]
    # Remainder keys stay inside Newton(p)'s box; a candidate quotient
    # term is one p-box key minus one d key.
    span = max(abs(e) for e in p_lo + p_hi + d_lo + d_hi)
    packing = Packing(weights, 2 * span)
    pack, unpack = packing.pack, packing.unpack
    dterms = sorted((pack(key), v) for key, v in td.items())
    lead_d, lc_d = dterms.pop()
    r = {pack(key): v for key, v in tp.items()}
    heap = [-key for key in r]  # max-heap of the remainder's keys, lazily pruned
    heapify(heap)
    q = {}
    work = 0
    work_cap = max_terms * WORK_FACTOR if max_terms else 0
    nd = len(td)
    get = r.get
    while r:
        lead_r = -heappop(heap)
        if lead_r not in r:
            continue
        tk = lead_r - lead_d
        t1, t2, t3, t4, t5 = t = unpack(tk)
        if not (
            lo1 <= t1 <= hi1 and lo2 <= t2 <= hi2 and lo3 <= t3 <= hi3
            and lo4 <= t4 <= hi4 and lo5 <= t5 <= hi5
        ):
            raise NotDivisible("leading term not reachable by any exact quotient")
        c, rem = divmod(r.pop(lead_r), lc_d)
        if rem:
            raise NotDivisible("leading coefficient not divisible")
        q[t] = c
        for dk, v in dterms:
            k = tk + dk
            s = get(k)
            if s is None:
                r[k] = -c * v
                heappush(heap, -k)
            else:
                s -= c * v
                if s:
                    r[k] = s
                else:
                    del r[k]
        work += nd
        if max_terms and (
            len(q) > max_terms or len(r) > max_terms or work > work_cap
        ):
            raise BudgetExceeded("division budget exhausted")
    return q


def new_power_caches() -> list:
    """Fresh power caches for substitute_terms; share across calls with the
    same images to avoid recomputing image powers."""
    return [{0: {(0, 0, 0, 0, 0): 1}} for _ in range(4)]


def substitute_terms(
    tp: dict, images, max_terms: int = 0, caches=None, nf=None, m: int = 0
) -> dict:
    """Evaluate tp at the four image term maps.  tp must have nonnegative exponents.

    With nf=(a, b) every partial product is reduced to normal form on the
    spot, which keeps intermediates at the size of the reduced answer (sound
    because reduction is a ring map on classes).  Only valid when the images
    are themselves reduced representatives.  The terms of one y-monomial of
    tp are substituted together, as one term.
    """
    if caches is None:
        caches = new_power_caches()

    def reduce_(t: dict) -> dict:
        if nf is None:
            return t
        return _normal_form_terms(t, nf[0], nf[1], m, max_terms)

    def power(i: int, e: int) -> dict:
        cache = caches[i]
        got = cache.get(e)
        if got is None:
            # build from the largest cached power below e
            best = max(k for k in cache if k <= e)
            got = cache[best]
            while best < e:
                got = reduce_(_mul_terms(got, images[i], max_terms, m))
                best += 1
                cache[best] = got
        return got

    coeffs: dict = {}  # y-monomial -> its terms as a map of powers of t
    for (e1, e2, e3, e4, k), c in tp.items():
        coeffs.setdefault((e1, e2, e3, e4), {})[(0, 0, 0, 0, k)] = c
    out = {}
    for exps, prod in coeffs.items():
        for i, e in enumerate(exps):
            if e:
                prod = reduce_(_mul_terms(prod, power(i, e), max_terms, m))
        out = add_terms(out, prod)
        if max_terms and len(out) > max_terms and _monomials(out) > max_terms:
            raise BudgetExceeded("substitution budget exhausted")
    return out


@lru_cache(maxsize=256)
def binomial_row(n: int) -> tuple:
    """(C(n,0), ..., C(n,n)), built with the multiplicative recurrence."""
    row = [1]
    c = 1
    for i in range(1, n + 1):
        c = c * (n - i + 1) // i
        row.append(c)
    return tuple(row)


def _repeat_work(layer: dict) -> int:
    """The work the level loop counts for the keys of layer whose y-monomial
    came earlier in it."""
    seen = set()
    work = 0
    for e1, e2, e3, e4, _ in layer:
        exps = (e1, e2, e3, e4)
        if exps in seen:
            m13 = e1 if e1 < e3 else e3
            m24 = e2 if e2 < e4 else e4
            if m13 > 0 or m24 > 0:
                work += m13 + m24 + 1
        else:
            seen.add(exps)
    return work


def normal_form_terms(tp: dict, a: int, b: int, m: int = 0, max_terms: int = 0) -> dict:
    """Rewrite with y1*y3 -> y2^a + 1 and y2*y4 -> y3^b + 1 until normal,
    and with t^m -> 1 when m > 0.

    Each rewrite of y strictly lowers the (a,1,1,b)-weighted degree, so
    processing terms level by level (highest weighted degree first, like
    terms merged within each level) terminates and visits every monomial at
    most once per level.  The power of t is reduced mod m first and each
    child keeps its parent's.  The result is the unique normal form; its
    terms come out level by level.  The coefficients of tp must be nonzero.

    The budget bounds the terms held after each level and the rewrites made;
    both count y-monomials, so with several powers of t in tp (``spread``)
    the key counts are corrected.
    """
    tp = wrap_t(tp, m)
    spread = max_terms and m > 1 and len({key[4] for key in tp}) > 1
    n_in = _monomials(tp) if spread else len(tp)
    pending: dict = {}  # weighted degree -> merged term map awaiting reduction
    normal = True
    for key, c in tp.items():
        e1, e2, e3, e4, _ = key
        d = a * e1 + e2 + e3 + b * e4
        pending.setdefault(d, {})[key] = c
        if normal and (e1 > 0 and e3 > 0 or e2 > 0 and e4 > 0):
            normal = False
    if normal:
        # the level loop would move each bucket to the output unchanged
        if max_terms and n_in > max_terms:
            raise BudgetExceeded("normal form budget exhausted")
        out = {}
        for d in sorted(pending, reverse=True):
            out.update(pending[d])
        return out

    out = {}
    size = len(tp)  # len(out) + the terms in all pending buckets
    processed = 0
    work_cap = max_terms * WORK_FACTOR + n_in if max_terms else 0
    while pending:
        level = max(pending)
        layer = pending.pop(level)
        if spread:
            processed -= _repeat_work(layer)
        for key, c in layer.items():
            e1, e2, e3, e4, k = key
            m13 = e1 if e1 < e3 else e3
            m24 = e2 if e2 < e4 else e4
            if m13 > 0:
                # y1^m13 y3^m13 -> (y2^a + 1)^m13, expanded binomially
                n, da, db = m13, a, 0
                e1 -= n
                e3 -= n
            elif m24 > 0:
                # y2^m24 y4^m24 -> (y3^b + 1)^m24
                n, da, db = m24, 0, b
                e2 -= n
                e4 -= n
            else:
                out[key] = c  # a level is reduced once, so key is new to out
                continue
            processed += m13 + m24 + 1
            size -= 1
            # child i is t^k y^(e1, e2 + da*i, e3 + db*i, e4) with coefficient
            # C(n, i) * c, one level step of da + db above child i - 1
            step = da + db
            d = level - (step + 1) * n
            for w in binomial_row(n):
                key = (e1, e2, e3, e4, k)
                bucket = pending.get(d)
                if bucket is None:
                    pending[d] = {key: c * w}
                    size += 1
                else:
                    s = bucket.get(key)
                    if s is None:
                        bucket[key] = c * w
                        size += 1
                    else:
                        s += c * w
                        if s:
                            bucket[key] = s
                        else:
                            del bucket[key]
                            size -= 1
                d += step
                e2 += da
                e3 += db
        if max_terms and (size > max_terms or processed > work_cap):
            # a monomial lives in one bucket, or in out
            if not spread or processed > work_cap or _monomials(out) + sum(
                _monomials(bucket) for bucket in pending.values()
            ) > max_terms:
                raise BudgetExceeded("normal form budget exhausted")
    return out


# The kernel calls its own functions through these private names, so that a
# wrapper installed on a public name from outside (perfbench --trace) counts
# only the calls made from outside the kernel.  They go together with those
# wrappers once the engine counts its own operations.
_mul_terms = mul_terms
_normal_form_terms = normal_form_terms
