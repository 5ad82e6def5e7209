"""Text formats: a polynomial grammar and a generator-word grammar.

Polynomials are sums of terms; a term is an optional sign, an optional
coefficient and any number of variable factors, joined by '*' or plain
juxtaposition:

    term   := [sign] atom ( ['*'] atom )*
    atom   := integer | 't' ['^' integer] | variable ['^' integer]
    variable := 'y1' | 'y2' | 'y3' | 'y4'

Exponents may be negative.  The coefficient 't^k' denotes the order-m root
of unity surrogate and is only legal when parsing over a surrogate ring.
Whitespace (including newlines) is insignificant.  Canonical printing
orders terms by the weighted degree, descending, and prints the terms of
one monomial in ascending powers of t.

Words in the generators are whitespace-separated tokens

    's2' | 's3' | 'h' | 'sp(<int>)' | 'm(<int>,<int>)'

read left to right; the leftmost token acts last under composition.  The
rotation shorthand 'r' / 'r^<int>' used by the group normal-form printer is
also accepted, as one atom ('r', k) standing for the alternating word
(s2 s3)^k, so printed normal forms parse back; 'r^0' and 'id' stand for
the empty word.
"""
from __future__ import annotations

from .errors import ParseError
from .poly import LaurentPoly, Params, descending_keys
from .rings import ZZ, CoeffRing


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "int":
        return repr(str(tok.value))
    if tok.kind == "var":
        return f"'y{tok.value}'"
    if tok.kind == "t":
        return "'t'"
    return f"'{tok.kind}'"


def _digit(ch: str) -> bool:
    """Is ``ch`` one of the ASCII digits 0-9?  (``str.isdigit`` also accepts
    characters such as superscripts and other scripts' digits.)"""
    return "0" <= ch <= "9"


def _scan_poly(src: str) -> list:
    toks = []
    i, line, col = 0, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "+-*^":
            toks.append(_Token(ch, None, line, col))
            i += 1
            col += 1
            continue
        if _digit(ch):
            j = i
            while j < n and _digit(src[j]):
                j += 1
            toks.append(_Token("int", int(src[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch == "t":
            toks.append(_Token("t", None, line, col))
            i += 1
            col += 1
            continue
        if ch == "y":
            j = i + 1
            while j < n and _digit(src[j]):
                j += 1
            name = src[i:j]
            if name in ("y1", "y2", "y3", "y4"):
                toks.append(_Token("var", int(name[1]), line, col))
            else:
                raise ParseError(f"unknown variable {name!r}", line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", None, line, col))
    return toks


def _parse_exponent(toks: list, pos: int) -> tuple[int, int]:
    sign = 1
    if toks[pos].kind == "-":
        sign = -1
        pos += 1
    tok = toks[pos]
    if tok.kind != "int":
        raise ParseError(
            f"expected an integer exponent, found {_describe(tok)}",
            tok.line,
            tok.col,
        )
    return pos + 1, sign * tok.value


def _parse_term(toks: list, pos: int, ring: CoeffRing) -> tuple:
    coeff = 1
    key = [0, 0, 0, 0, 0]  # exponents of y1..y4, then the power of t
    while True:
        tok = toks[pos]
        if tok.kind == "int":
            coeff *= tok.value
            pos += 1
        elif tok.kind == "t":
            if ring.is_integers:
                raise ParseError(
                    "coefficient 't' needs a root-of-unity surrogate ring",
                    tok.line,
                    tok.col,
                )
            pos += 1
            k = 1
            if toks[pos].kind == "^":
                pos, k = _parse_exponent(toks, pos + 1)
            key[4] += k
        elif tok.kind == "var":
            pos += 1
            k = 1
            if toks[pos].kind == "^":
                pos, k = _parse_exponent(toks, pos + 1)
            key[tok.value - 1] += k
        else:
            raise ParseError(
                f"expected a term, found {_describe(tok)}", tok.line, tok.col
            )
        nxt = toks[pos]
        if nxt.kind == "*":
            pos += 1
        elif nxt.kind not in ("int", "t", "var"):
            break
    return pos, tuple(key), coeff


def parse_poly(src: str, ring: CoeffRing = ZZ) -> LaurentPoly:
    """Parse the polynomial grammar over ``ring``.

    ParseError carries the 1-based line and 0-based column of the offence.
    """
    toks = _scan_poly(src)
    end = toks[-1]
    if toks[0].kind == "end":
        raise ParseError("empty polynomial", end.line, end.col)
    pairs = []
    pos = 0
    first = True
    while toks[pos].kind != "end":
        tok = toks[pos]
        sign = 1
        if tok.kind in ("+", "-"):
            sign = -1 if tok.kind == "-" else 1
            pos += 1
        elif not first:
            raise ParseError(
                f"expected '+' or '-', found {_describe(tok)}", tok.line, tok.col
            )
        pos, key, coeff = _parse_term(toks, pos, ring)
        pairs.append((key, sign * coeff))
        first = False
    return LaurentPoly.from_terms(ring, pairs)


def print_poly(p: LaurentPoly, params: Params, keys=None) -> str:
    """Canonical text: terms in descending weighted order, the terms of one
    monomial in ascending powers of t.  ``keys`` may give that order, as
    ``descending_keys(p, params)`` does."""
    tp = p._terms  # read, not copied
    if not tp:
        return "0"
    if keys is None:
        keys = descending_keys(p, params)
    out = []
    for key in keys:
        coeff = tp[key]
        t_pow = key[4]
        parts = [("t" if t_pow == 1 else f"t^{t_pow}")] if t_pow else []
        for i, e in enumerate(key[:4], 1):
            if e:
                parts.append(f"y{i}" if e == 1 else f"y{i}^{e}")
        if (coeff != 1 and coeff != -1) or not parts:
            parts.insert(0, str(abs(coeff)))
        body = "*".join(parts)
        if out:
            out.append(("- " if coeff < 0 else "+ ") + body)
        else:
            out.append(("-" if coeff < 0 else "") + body)
    return " ".join(out)


# -- generator words -------------------------------------------------------


def _scan_int(src: str, i: int, line: int, col: int) -> tuple[int, int, int]:
    """Read an optionally signed integer at src[i:]; returns (value, i, col)."""
    j = i
    if j < len(src) and src[j] == "-":
        j += 1
    k = j
    while k < len(src) and _digit(src[k]):
        k += 1
    if k == j:
        found = repr(src[i]) if i < len(src) else "end of input"
        raise ParseError(f"expected an integer, found {found}", line, col)
    return int(src[i:k]), k, col + (k - i)


def _skip_space(src: str, i: int, line: int, col: int) -> tuple[int, int, int]:
    while i < len(src) and src[i] in " \t\r\n":
        if src[i] == "\n":
            line += 1
            col = 0
        else:
            col += 1
        i += 1
    return i, line, col


def _expect(src: str, i: int, line: int, col: int, ch: str) -> tuple[int, int, int]:
    i, line, col = _skip_space(src, i, line, col)
    if i >= len(src) or src[i] != ch:
        found = repr(src[i]) if i < len(src) else "end of input"
        raise ParseError(f"expected {ch!r}, found {found}", line, col)
    return i + 1, line, col + 1


def parse_word(src: str) -> list:
    """Parse a generator word into a list of atoms:

    ('s2',), ('s3',), ('h',), ('sp', p), ('m', i, j), ('r', k).
    """
    atoms = []
    i, line, col = 0, 1, 0
    n = len(src)
    while True:
        i, line, col = _skip_space(src, i, line, col)
        if i >= n:
            break
        head = src[i : i + 2]
        if head in ("s2", "s3"):
            atoms.append((head,))
            i += 2
            col += 2
        elif src[i] == "h":
            atoms.append(("h",))
            i += 1
            col += 1
        elif head == "sp":
            i, line, col = _expect(src, i + 2, line, col + 2, "(")
            i, line, col = _skip_space(src, i, line, col)
            p, i, col = _scan_int(src, i, line, col)
            i, line, col = _expect(src, i, line, col, ")")
            atoms.append(("sp", p))
        elif src[i] == "m":
            i, line, col = _expect(src, i + 1, line, col + 1, "(")
            i, line, col = _skip_space(src, i, line, col)
            a1, i, col = _scan_int(src, i, line, col)
            i, line, col = _expect(src, i, line, col, ",")
            i, line, col = _skip_space(src, i, line, col)
            a2, i, col = _scan_int(src, i, line, col)
            i, line, col = _expect(src, i, line, col, ")")
            atoms.append(("m", a1, a2))
        elif src[i] == "r":
            i += 1
            col += 1
            k = 1
            if i < n and src[i] == "^":
                k, i, col = _scan_int(src, i + 1, line, col + 1)
            if k:
                atoms.append(("r", k))
        elif src[i] == "i" and src[i : i + 2] == "id":
            i += 2
            col += 2
        else:
            raise ParseError(
                f"unknown word token starting at {src[i]!r}", line, col
            )
    return atoms


def print_word(atoms) -> str:
    """Canonical text for a word: whitespace-separated tokens."""
    parts = []
    for atom in atoms:
        kind = atom[0]
        if kind in ("s2", "s3", "h"):
            parts.append(kind)
        elif kind == "sp":
            parts.append(f"sp({atom[1]})")
        elif kind == "m":
            parts.append(f"m({atom[1]},{atom[2]})")
        elif kind == "r":
            parts.append("r" if atom[1] == 1 else f"r^{atom[1]}")
        else:
            raise ValueError(f"unknown atom {atom!r}")
    return " ".join(parts) if parts else "id"
