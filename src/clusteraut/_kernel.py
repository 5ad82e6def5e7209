"""Term-map kernels, in pure Python.

A term map is a dict from exponent 4-tuples (e1, e2, e3, e4) to nonzero
coefficient values: Python ints, or integer tuples for the surrogate ring.
The optional ``ops`` argument carries surrogate-ring arithmetic; ``ops is
None`` selects the native int fast path.

Exact division and integer powers work on packed monomials internally
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  A ``Packing`` maps
an exponent tuple to one int holding the signed fields (wdeg, e1, e4, e2,
e3), most significant first.  The map is linear, so a monomial product is an
int addition, and comparing two keys compares their ``order_key`` tuples.
The field width is chosen per call from the exponent bounds of the inputs,
so the packing is exact for every input.

Division picks each leading term of the remainder from a max-heap of its
packed keys with lazy deletion (Monagan & Pearce, "Sparse polynomial
division using a heap", J. Symb. Comput. 2011) instead of rescanning the
remainder.  The remainder itself stays a dict, so the quotient, the term
counts and the work counter match the plain leading-term elimination step
by step.  Term maps enter and leave every function with 4-tuple keys.

The normal-form rewriter expands y1^m y3^m into (y2^a + 1)^m (or y2^m y4^m
into (y3^b + 1)^m) with the coefficients of one binomial row, built in O(m)
steps and kept in a bounded cache.  It scales a surrogate coefficient by an
integer entry by entry, without a ring multiplication, and takes each
child's weighted degree from its parent's by a fixed step.  Input that is
already normal is only ordered by weighted degree.
"""
from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add

from .budget import WORK_FACTOR
from .errors import BudgetExceeded, NotDivisible

IMPLEMENTATION = "python"


class Packing:
    """Exponent 4-tuples <-> ints holding the signed fields (wdeg, e1, e4, e2, e3).

    Exact (a bijection that adds and orders like the tuples) for every
    exponent vector whose entries are at most ``bound`` in absolute value.
    The wdeg field is the most significant one, so it needs no bound; with
    zero weights it is always 0.
    """

    __slots__ = ("mults", "width", "mask", "offset")

    def __init__(self, weights: tuple, bound: int):
        w1, w2, w3, w4 = weights
        # exponent fields in [-2^(width-1), 2^(width-1)); bound < 2^(width-1)
        width = bound.bit_length() + 1
        top = 4 * width
        self.mults = (
            (w1 << top) + (1 << 3 * width),
            (w2 << top) + (1 << width),
            (w3 << top) + 1,
            (w4 << top) + (1 << 2 * width),
        )
        self.width = width
        self.mask = (1 << width) - 1
        # adding half to every exponent field makes it a plain base-2^width digit
        half = 1 << (width - 1)
        self.offset = sum(half << i * width for i in range(4))

    def pack(self, exps: tuple) -> int:
        c1, c2, c3, c4 = self.mults
        e1, e2, e3, e4 = exps
        return c1 * e1 + c2 * e2 + c3 * e3 + c4 * e4

    def unpack(self, key: int) -> tuple:
        width, mask = self.width, self.mask
        half = (mask + 1) >> 1
        key += self.offset
        e3 = (key & mask) - half
        key >>= width
        e2 = (key & mask) - half
        key >>= width
        e4 = (key & mask) - half
        key >>= width
        return ((key & mask) - half, e2, e3, e4)


def add_terms(ta: dict, tb: dict, ops=None) -> dict:
    out = dict(ta)
    if ops is None:
        for k, v in tb.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    else:
        for k, v in tb.items():
            cur = out.get(k)
            s = v if cur is None else ops.add(cur, v)
            if ops.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def neg_terms(ta: dict, ops=None) -> dict:
    if ops is None:
        return {k: -v for k, v in ta.items()}
    return {k: ops.neg(v) for k, v in ta.items()}


def sub_terms(ta: dict, tb: dict, ops=None) -> dict:
    return add_terms(ta, neg_terms(tb, ops), ops)


def scale_terms(ta: dict, exps: tuple, coeff, ops=None) -> dict:
    """Multiply by the single term coeff * y^exps.  coeff must be nonzero."""
    e1, e2, e3, e4 = exps
    out = {}
    if ops is None:
        for (f1, f2, f3, f4), v in ta.items():
            out[(f1 + e1, f2 + e2, f3 + e3, f4 + e4)] = v * coeff
    else:
        for (f1, f2, f3, f4), v in ta.items():
            c = ops.mul(v, coeff)
            if not ops.is_zero(c):
                out[(f1 + e1, f2 + e2, f3 + e3, f4 + e4)] = c
    return out


def mul_terms(ta: dict, tb: dict, ops=None, max_terms: int = 0) -> dict:
    na, nb = len(ta), len(tb)
    if na == 0 or nb == 0:
        return {}
    if na == 1:
        (exps, coeff), = ta.items()
        return scale_terms(tb, exps, coeff, ops)
    if nb == 1:
        (exps, coeff), = tb.items()
        return scale_terms(ta, exps, coeff, ops)
    if max_terms and na * nb > max_terms * WORK_FACTOR:
        raise BudgetExceeded(f"product work {na}*{nb} exceeds budget")
    out = {}
    if ops is None:
        for (a1, a2, a3, a4), va in ta.items():
            for (b1, b2, b3, b4), vb in tb.items():
                k = (a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                s = out.get(k, 0) + va * vb
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
    else:
        for (a1, a2, a3, a4), va in ta.items():
            for (b1, b2, b3, b4), vb in tb.items():
                k = (a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                cur = out.get(k)
                s = ops.mul(va, vb) if cur is None else ops.add(cur, ops.mul(va, vb))
                if ops.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
    if max_terms and len(out) > max_terms:
        raise BudgetExceeded(f"product has {len(out)} terms, budget {max_terms}")
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


def pow_terms(ta: dict, k: int, ops=None, max_terms: int = 0) -> dict:
    """ta ** k; over the integers, k >= 2 multiplies packed keys."""
    if k == 0:
        return {(0, 0, 0, 0): 1 if ops is None else ops.one}
    if ops is not None or k == 1:
        return _power(dict(ta), k, lambda x, y: _mul_terms(x, y, ops, max_terms))
    if not ta:
        return {}
    # every exponent of every intermediate power is at most k * span; a
    # product of two maps of two or more terms has two or more terms
    span = max(abs(e) for exps in ta for e in exps)
    packing = Packing((0, 0, 0, 0), k * span)
    pack, unpack = packing.pack, packing.unpack
    result = _power(
        {pack(exps): v for exps, v in ta.items()}, k,
        lambda x, y: _mul_packed(x, y, max_terms),
    )
    return {unpack(key): v for key, v in result.items()}


def order_key(exps: tuple, weights: tuple) -> tuple:
    """Total order: weighted degree first, then lex on (e1, e4, e2, e3)."""
    e1, e2, e3, e4 = exps
    w1, w2, w3, w4 = weights
    return (w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4, e1, e4, e2, e3)


def max_weighted_degree(tp: dict, weights: tuple) -> int:
    w1, w2, w3, w4 = weights
    return max(w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4 for e1, e2, e3, e4 in tp)


def _support_box(tp: dict):
    los = [None] * 4
    his = [None] * 4
    for exps in tp:
        for i, e in enumerate(exps):
            if los[i] is None or e < los[i]:
                los[i] = e
            if his[i] is None or e > his[i]:
                his[i] = e
    return los, his


def exact_div_terms(tp: dict, td: dict, weights: tuple, max_terms: int = 0) -> dict:
    """Exact quotient tp / td over the integers, or raise NotDivisible.

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
    # exact per-coordinate bounds on any quotient monomial
    p_lo, p_hi = _support_box(tp)
    d_lo, d_hi = _support_box(td)
    lo1, lo2, lo3, lo4 = [pl - dl for pl, dl in zip(p_lo, d_lo)]
    hi1, hi2, hi3, hi4 = [ph - dh for ph, dh in zip(p_hi, d_hi)]
    # Remainder monomials stay inside Newton(p)'s box; a candidate quotient
    # term is one p-box monomial minus one d monomial.
    span = max(abs(e) for e in p_lo + p_hi + d_lo + d_hi)
    packing = Packing(weights, 2 * span)
    pack, unpack = packing.pack, packing.unpack
    dterms = sorted((pack(exps), v) for exps, v in td.items())
    lead_d, lc_d = dterms.pop()
    r = {pack(exps): v for exps, v in tp.items()}
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
        t1, t2, t3, t4 = t = unpack(tk)
        if not (
            lo1 <= t1 <= hi1 and lo2 <= t2 <= hi2 and lo3 <= t3 <= hi3 and lo4 <= t4 <= hi4
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


def new_power_caches(ops=None) -> list:
    """Fresh power caches for substitute_terms; share across calls with the
    same images to avoid recomputing image powers."""
    one = 1 if ops is None else ops.one
    return [{0: {(0, 0, 0, 0): one}} for _ in range(4)]


def substitute_terms(
    tp: dict, images, ops=None, max_terms: int = 0, caches=None, nf=None
) -> dict:
    """Evaluate tp at the four image term maps.  tp must have nonnegative exponents.

    With nf=(a, b) every partial product is reduced to normal form on the
    spot, which keeps intermediates at the size of the reduced answer (sound
    because reduction is a ring map on classes).  Only valid when the images
    are themselves reduced representatives.
    """
    if caches is None:
        caches = new_power_caches(ops)

    def reduce_(t: dict) -> dict:
        if nf is None:
            return t
        return _normal_form_terms(t, nf[0], nf[1], ops, max_terms)

    def power(i: int, e: int) -> dict:
        cache = caches[i]
        got = cache.get(e)
        if got is None:
            # build from the largest cached power below e
            best = max(k for k in cache if k <= e)
            got = cache[best]
            while best < e:
                got = reduce_(_mul_terms(got, images[i], ops, max_terms))
                best += 1
                cache[best] = got
        return got

    out = {}
    for exps, c in tp.items():
        prod = {(0, 0, 0, 0): c}
        for i, e in enumerate(exps):
            if e:
                prod = reduce_(_mul_terms(prod, power(i, e), ops, max_terms))
        out = add_terms(out, prod, ops)
        if max_terms and len(out) > max_terms:
            raise BudgetExceeded("substitution budget exhausted")
    return out


@lru_cache(maxsize=256)
def binomial_row(m: int) -> tuple:
    """(C(m,0), ..., C(m,m)), built with the multiplicative recurrence."""
    row = [1]
    c = 1
    for i in range(1, m + 1):
        c = c * (m - i + 1) // i
        row.append(c)
    return tuple(row)


def normal_form_terms(tp: dict, a: int, b: int, ops=None, max_terms: int = 0) -> dict:
    """Rewrite with y1*y3 -> y2^a + 1 and y2*y4 -> y3^b + 1 until normal.

    Each rewrite strictly lowers the (a,1,1,b)-weighted degree, so processing
    terms level by level (highest weighted degree first, like terms merged
    within each level) terminates and visits every monomial at most once per
    level.  The result is the unique normal form; its terms come out level
    by level.  The coefficients of tp must be nonzero.
    """
    pending: dict = {}  # weighted degree -> merged term map awaiting reduction
    normal = True
    for exps, c in tp.items():
        e1, e2, e3, e4 = exps
        d = a * e1 + e2 + e3 + b * e4
        pending.setdefault(d, {})[exps] = c
        if normal and (e1 > 0 and e3 > 0 or e2 > 0 and e4 > 0):
            normal = False
    if normal:
        # the level loop would move each bucket to the output unchanged
        if max_terms and len(tp) > max_terms:
            raise BudgetExceeded("normal form budget exhausted")
        out = {}
        for d in sorted(pending, reverse=True):
            out.update(pending[d])
        return out

    out = {}
    size = len(tp)  # len(out) + the terms in all pending buckets
    processed = 0
    work_cap = max_terms * WORK_FACTOR + len(tp) if max_terms else 0
    while pending:
        level = max(pending)
        layer = pending.pop(level)
        for exps, c in layer.items():
            e1, e2, e3, e4 = exps
            m13 = e1 if e1 < e3 else e3
            m24 = e2 if e2 < e4 else e4
            if m13 > 0:
                # y1^m13 y3^m13 -> (y2^a + 1)^m13, expanded binomially
                m, da, db = m13, a, 0
                e1 -= m
                e3 -= m
            elif m24 > 0:
                # y2^m24 y4^m24 -> (y3^b + 1)^m24
                m, da, db = m24, 0, b
                e2 -= m
                e4 -= m
            else:
                out[exps] = c  # a level is reduced once, so exps is new to out
                continue
            processed += m13 + m24 + 1
            size -= 1
            # child i is y^(e1, e2 + da*i, e3 + db*i, e4) with coefficient
            # C(m, i) * c, one level step of da + db above child i - 1
            step = da + db
            d = level - (step + 1) * m
            if ops is None:
                for w in binomial_row(m):
                    key = (e1, e2, e3, e4)
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
            else:
                for w in binomial_row(m):
                    key = (e1, e2, e3, e4)
                    cc = c if w == 1 else tuple([u * w for u in c])
                    bucket = pending.get(d)
                    if bucket is None:
                        pending[d] = {key: cc}
                        size += 1
                    else:
                        s = bucket.get(key)
                        if s is None:
                            bucket[key] = cc
                            size += 1
                        else:
                            s = tuple(map(add, s, cc))
                            if any(s):
                                bucket[key] = s
                            else:
                                del bucket[key]
                                size -= 1
                    d += step
                    e2 += da
                    e3 += db
        if max_terms and (size > max_terms or processed > work_cap):
            raise BudgetExceeded("normal form budget exhausted")
    return out


# The kernel calls its own functions through these private names, so that a
# wrapper installed on a public name from outside (perfbench --trace) counts
# only the calls made from outside the kernel.  They go together with those
# wrappers when the engine counts its own operations (ROADMAP item 4).
_mul_terms = mul_terms
_normal_form_terms = normal_form_terms
