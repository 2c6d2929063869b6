"""Slow, independent reference implementations used as ground truth.

Nothing here shares search logic with the table-based solvers: multiples
are found by plain enumeration over exponent combinations, logarithms by
stepping x^k one multiplication at a time, and divisibility by schoolbook
long division on dense bitmasks.  Agreement between these paths and the
fast ones is what the test suite leans on.

Performance is explicitly a non-goal; every entry point carries a size
guard instead.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import InstanceTooLargeError, LogOfZeroError
from .gf2poly import FieldContext, SparsePoly
from .search import MultipleRecord

_BRUTE_COMBO_GUARD = 10**9
_BRUTE_LOG_GUARD = 2**26


def poly_divides(p: SparsePoly, m: SparsePoly) -> bool:
    """True iff p divides m, by long division over GF(2).

    Works on dense bitmasks and shares no code with the residue
    arithmetic in gf2poly, so agreement between the two is meaningful.
    The zero polynomial is divisible by anything.
    """
    if p.is_zero():
        raise ValueError("division by the zero polynomial")
    r = m.to_int()
    d = p.to_int()
    dp = d.bit_length() - 1
    while r and r.bit_length() - 1 >= dp:
        r ^= d << (r.bit_length() - 1 - dp)
    return r == 0


def brute_force_log(ctx: FieldContext, a: int) -> int:
    """Discrete log of a by successive multiplication by x from 1."""
    if a == 0:
        raise LogOfZeroError("the zero element has no discrete logarithm")
    if ctx.order > _BRUTE_LOG_GUARD:
        raise InstanceTooLargeError(
            f"brute-force log guard: group order {ctx.order} > 2^26"
        )
    n = ctx.n
    p_int = ctx.poly.to_int()
    v = 1
    for k in range(ctx.order):
        if v == a:
            return k
        v <<= 1
        if (v >> n) & 1:
            v ^= p_int
    raise ValueError(f"{a:#x} is not a nonzero field element")


def brute_force_multiples(ctx: FieldContext, w: int, D: int) -> set[MultipleRecord]:
    """All multiples of P with constant term, weight of the same parity
    as w (and at most w), and degree at most D, by full enumeration.

    A candidate 1 + x^{e_1} + ... + x^{e_q} is a multiple iff the XOR of
    the monomial residues equals 0; the enumeration walks every strictly
    increasing q-tuple for q = w-1, w-3, ... down to 1.  Only the
    same-parity weights are enumerated: that is what both table searches
    produce, and what the worked micro-instances pin down.
    """
    if w < 2:
        return set()
    if comb(D, w - 1) > _BRUTE_COMBO_GUARD:
        raise InstanceTooLargeError(
            f"brute-force guard: C({D}, {w - 1}) > 10^9"
        )
    n = ctx.n
    p_int = ctx.poly.to_int()
    # Independent power chain: x^k mod P for k = 0..D by shift-and-fold.
    powers = [0] * (D + 1)
    v = 1
    for k in range(D + 1):
        powers[k] = v
        v <<= 1
        if (v >> n) & 1:
            v ^= p_int
    tail = np.array(powers[1:], dtype=np.uint64)  # tail[i] = x^(i+1)

    found: set[MultipleRecord] = set()

    def emit(exps: tuple[int, ...]) -> None:
        found.add(MultipleRecord.of(exps))

    def scan(q: int, lo: int, acc: int, prefix: tuple[int, ...]) -> None:
        # acc carries the constant term plus the prefix's residues; the
        # innermost position is matched against the whole tail at once.
        if q == 1:
            hits = np.nonzero(tail[lo - 1 :] == np.uint64(acc))[0]
            for h in hits:
                emit((0,) + prefix + (lo + int(h),))
            return
        for e in range(lo, D - q + 2):
            scan(q - 1, e + 1, acc ^ powers[e], prefix + (e,))

    q = w - 1
    while q >= 1:
        scan(q, 1, 1, ())
        q -= 2
    return found
