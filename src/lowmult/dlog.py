"""Discrete logarithms base x in GF(2^n), via Pohlig-Hellman.

The group order M = 2^n - 1 splits into prime powers; each prime p gets
one subgroup solver, either

* a full table of the order-p subgroup (p entries, O(1) lookups), or
* baby-step giant-step state (a baby table of configurable size m,
  default ceil(sqrt(p)), and the giant multiplier g^-m).

Digits of prime powers p^e are lifted one at a time through the order-p
subgroup, so correctness never depends on M being squarefree.  Component
results combine by CRT.  A full tabulation is the m = p extreme of the
same trade-off; growing the baby table past sqrt(p) buys time for memory
on group orders whose largest prime factor is otherwise out of reach.

Engines are immutable after build and safe to share between threads.
Tables can be dumped to and loaded from a little-endian cache file that
round-trips bit-exactly.
"""

from __future__ import annotations

import struct
import zlib
from math import isqrt

import numpy as np

from .errors import (
    LogOfZeroError,
    MemoryBudgetExceededError,
    ZechUndefinedError,
)
from .gf2poly import FieldContext, SparsePoly, make_context

DEFAULT_TABULATION_ENTRIES = 2**26
DEFAULT_MAX_TABLE_BYTES = 2**31

# Memory model: one (element, digit) pair costs 16 bytes, held in an
# open-addressed table at 75% maximum load.
_ENTRY_BYTES = 16

_DICT_ACCEL_LIMIT = 2**16  # small tables also get a plain dict

_CACHE_MAGIC = b"LWMENG1\x00"
_CACHE_VERSION = 1

STRATEGY_TABLE = "table"
STRATEGY_BSGS = "bsgs"


def _slots(entries: int) -> int:
    return -(-entries * 4 // 3)  # ceil(entries / 0.75)


def _model_bytes(entries: int) -> int:
    return _slots(entries) * _ENTRY_BYTES


def _tabulate(ctx, p, baby_entries):
    """gp^j for j < min(p, baby_entries), where gp = x^(M/p) has order p,
    as (values sorted ascending, their exponents j)."""
    gp = ctx.pow(2, ctx.order // p)
    m = min(p, baby_entries)
    raw = [1] * m
    v = 1
    if gp == 2:  # generator is x itself: step by one shift
        mulx = ctx.mulx
        for j in range(m):
            raw[j] = v
            v = mulx(v)
    else:
        mul = ctx.mul
        for j in range(m):
            raw[j] = v
            v = mul(v, gp)
    if m == p and v != 1:
        raise AssertionError("subgroup enumeration did not close")
    vals = np.array(raw, dtype="<i8")
    del raw
    order = np.argsort(vals, kind="stable")
    return vals[order], order.astype("<i8")


class _SubgroupLog:
    """Log lookup in the order-p subgroup generated by gp = x^(M/p).

    vals holds gp^j for j < m sorted ascending and idx the matching j.
    m == p is a full table; a smaller m is the baby table of baby-step
    giant-step.
    """

    __slots__ = ("p", "m", "vals", "idx", "accel", "giant", "steps")

    def __init__(self, ctx, p, vals, idx):
        self.p = p
        self.m = m = len(vals)
        self.vals = vals
        self.idx = idx
        self.accel = (
            dict(zip(vals.tolist(), idx.tolist()))
            if m <= _DICT_ACCEL_LIMIT
            else None
        )
        self.giant = ctx.pow(2, ctx.order // p * (p - m))  # gp^-m; 1 if m == p
        self.steps = (p - 1) // m  # 0 for a full table

    @property
    def strategy(self) -> str:
        return STRATEGY_TABLE if self.m == self.p else STRATEGY_BSGS

    def _baby(self, h):
        if self.accel is not None:
            return self.accel.get(h)
        i = int(np.searchsorted(self.vals, h))
        if i < self.m and int(self.vals[i]) == h:
            return int(self.idx[i])
        return None

    def lookup(self, ctx, h: int) -> int:
        """j with gp^j == h, for h in the subgroup."""
        cur = h
        for i in range(self.steps + 1):
            j = self._baby(cur)
            if j is not None:
                return i * self.m + j
            cur = ctx.mul(cur, self.giant)
        raise ValueError("element not found in subgroup (corrupt table?)")


class _PrimePowerSolver:
    """Log modulo one prime power q = p^e, digits lifted via order p."""

    __slots__ = ("p", "e", "q", "cofactor", "gq", "sub", "inv_pows", "p_pows")

    def __init__(self, ctx, p, e, tables):
        """tables: the sorted (vals, idx) of the order-p subgroup."""
        self.p = p
        self.e = e
        self.q = p**e
        M = ctx.order
        self.cofactor = M // self.q
        self.gq = ctx.pow(2, self.cofactor)  # order exactly q
        self.sub = _SubgroupLog(ctx, p, *tables)
        gq_inv = ctx.pow(self.gq, self.q - 1)
        self.p_pows = [p**k for k in range(e)]
        self.inv_pows = [ctx.pow(gq_inv, pk) for pk in self.p_pows]

    def component_log(self, ctx, chain: list[int]) -> int:
        # project into the order-q subgroup off the shared square chain
        # (chain[j] = a^(2^j)): a^(M/q) is the product over the set bits
        # of the cofactor
        cof = self.cofactor
        h = 1
        j = 0
        while cof:
            if cof & 1:
                h = chain[j] if h == 1 else ctx.mul(h, chain[j])
            cof >>= 1
            j += 1
        if self.e == 1:
            return self.sub.lookup(ctx, h)
        y = 0
        for k in range(self.e):
            c = ctx.pow(h, self.p_pows[self.e - 1 - k])
            d = self.sub.lookup(ctx, c)
            if d:
                h = ctx.mul(h, ctx.pow(self.inv_pows[k], d))
                y += d * self.p_pows[k]
        return y


class LogEngine:
    """Per-prime-power solvers plus CRT glue; answers discrete_log and
    zech_log for one field.  Identical answers regardless of which
    primes are tabulated and which fall back to BSGS."""

    def __init__(self, ctx, solvers, tabulation_threshold, bsgs_baby_entries,
                 predicted_bytes):
        self.ctx = ctx
        self.solvers = solvers
        self.tabulation_threshold = tabulation_threshold
        self.bsgs_baby_entries = bsgs_baby_entries
        self.predicted_bytes = predicted_bytes
        M = ctx.order
        self._crt = []
        for s in solvers:
            r = M // s.q
            self._crt.append((s, r * pow(r, -1, s.q) % M))

    def discrete_log(self, a: int) -> int:
        """k in [0, M-1] with x^k == a, for a != 0."""
        if a == 0:
            raise LogOfZeroError("the zero element has no discrete logarithm")
        if a == 1:
            return 0
        ctx = self.ctx
        M = ctx.order
        # one square chain a^(2^j) shared by every subgroup projection
        chain = [a]
        sqr = ctx.sqr
        for _ in range(ctx.n - 1):
            chain.append(sqr(chain[-1]))
        out = 0
        for solver, weight in self._crt:
            y = solver.component_log(ctx, chain)
            if y:
                out = (out + y * weight) % M
        return out

    def zech_log(self, i: int) -> int:
        """Z(i) = log(1 + x^i); undefined at i = 0 mod M."""
        M = self.ctx.order
        im = i % M
        if im == 0:
            raise ZechUndefinedError(f"1 + x^{i} = 0: Zech log undefined")
        return self.discrete_log(1 ^ self.ctx.monomial_residue(im))

    def strategy_summary(self) -> list[tuple[int, int, str, int]]:
        """Per prime power: (p, e, strategy, table entries)."""
        return [(s.p, s.e, s.sub.strategy, s.sub.m) for s in self.solvers]


def _plan(ctx, tabulation_threshold, bsgs_baby_entries):
    """Decide per-prime strategy and baby sizes; returns (plan, bytes).

    plan: list of (p, e, baby_entries) where baby_entries == p means a
    full table.  With the default threshold, primes are tabulated in
    ascending order while the running entry total stays within the
    2^26-entry budget; the rest spill to BSGS.
    """
    plan = []
    total_bytes = 0
    budget_entries = DEFAULT_TABULATION_ENTRIES if tabulation_threshold is None else None
    used_entries = 0
    for p, e in ctx.factorization:
        if tabulation_threshold is not None:
            full = p <= tabulation_threshold
        else:
            full = used_entries + p <= budget_entries
        if full:
            entries = p
            used_entries += p
        else:
            entries = bsgs_baby_entries if bsgs_baby_entries else isqrt(p - 1) + 1
            entries = min(entries, p)
        plan.append((p, e, entries))
        total_bytes += _model_bytes(entries)
    return plan, total_bytes


def predict_table_bytes(
    ctx: FieldContext,
    tabulation_threshold: int | None = None,
    bsgs_baby_entries: int | None = None,
) -> int:
    """Predicted table memory for build_engine, without building."""
    return _plan(ctx, tabulation_threshold, bsgs_baby_entries)[1]


def build_engine(
    ctx: FieldContext,
    tabulation_threshold: int | None = None,
    *,
    bsgs_baby_entries: int | None = None,
    max_table_bytes: int = DEFAULT_MAX_TABLE_BYTES,
) -> LogEngine:
    """Build the log engine for a field.

    Primes up to tabulation_threshold get full subgroup tables, larger
    ones baby-step giant-step state.  The default (threshold None)
    tabulates ascending primes within a 2^26-entry total budget and
    spills the rest to BSGS.  bsgs_baby_entries oversizes the BSGS baby
    tables beyond the default ceil(sqrt(p)), trading memory for time on
    orders with a huge prime factor.
    """
    if tabulation_threshold is not None and tabulation_threshold < 1:
        raise ValueError("tabulation threshold must be >= 1")
    plan, predicted = _plan(ctx, tabulation_threshold, bsgs_baby_entries)
    if predicted > max_table_bytes:
        raise MemoryBudgetExceededError(
            f"predicted engine tables need {predicted} bytes "
            f"(cap {max_table_bytes}); raise the cap or lower the threshold"
        )
    solvers = [
        _PrimePowerSolver(ctx, p, e, _tabulate(ctx, p, baby_entries))
        for p, e, baby_entries in plan
    ]
    return LogEngine(
        ctx, solvers, tabulation_threshold, bsgs_baby_entries, predicted
    )


def zech_orbit(i: int, zi: int, M: int) -> set[tuple[int, int]]:
    """Closure of the pair (i, Z(i)) under the three Zech identities.

    Z(2i) = 2 Z(i) mod M (Frobenius), Z(M-i) = Z(i) - i mod M, and
    Z(Z(i)) = i.  One computed logarithm therefore yields up to 6n
    valid pairs for free.
    """
    start = (i % M, zi % M)
    seen: set[tuple[int, int]] = set()
    frontier = [start]
    while frontier:
        j, z = frontier.pop()
        if (j, z) in seen:
            continue
        seen.add((j, z))
        frontier.append((2 * j % M, 2 * z % M))
        frontier.append((M - j, (z - j) % M))
        frontier.append((z, j))
    return seen


# -- cache file ----------------------------------------------------------


def save_engine(engine: LogEngine, path: str) -> None:
    """Dump the engine tables to a little-endian cache file.

    Layout: magic, version, modulus exponents, knobs, then per prime
    power the sorted subgroup values and their positions; a CRC32 of
    everything precedes nothing and trails the payload.
    """
    ctx = engine.ctx
    parts = [_CACHE_MAGIC, struct.pack("<IH", _CACHE_VERSION, ctx.n)]
    exps = ctx.poly.exponents
    parts.append(struct.pack("<H", len(exps)))
    parts.append(struct.pack(f"<{len(exps)}Q", *exps))
    thr = engine.tabulation_threshold
    baby = engine.bsgs_baby_entries
    parts.append(struct.pack("<QQ", 0 if thr is None else thr + 1,
                             0 if baby is None else baby))
    parts.append(struct.pack("<I", len(engine.solvers)))
    for s in engine.solvers:
        sub = s.sub
        kind = 0 if sub.strategy == STRATEGY_TABLE else 1
        parts.append(struct.pack("<QIBQ", s.p, s.e, kind, sub.m))
        parts.append(sub.vals.tobytes())
        parts.append(sub.idx.tobytes())
    payload = b"".join(parts)
    payload += struct.pack("<I", zlib.crc32(payload))
    with open(path, "wb") as fh:
        fh.write(payload)


def _check_table(ctx, p, vals, idx, path) -> None:
    """Cheap consistency check of one cached subgroup table: vals
    strictly increasing, 0 <= idx < p, and gp^idx[j] == vals[j] at up
    to 16 evenly spaced j."""
    m = len(vals)
    if np.any(vals[1:] <= vals[:-1]) or idx.min() < 0 or idx.max() >= p:
        raise ValueError(f"{path}: malformed table for prime {p}")
    gp = ctx.pow(2, ctx.order // p)
    for j in {k * (m - 1) // 15 for k in range(16)}:
        if ctx.pow(gp, int(idx[j])) != int(vals[j]):
            raise ValueError(f"{path}: table for prime {p} fails gp^idx == vals")


def load_engine(path: str) -> LogEngine:
    """Rebuild an engine from a cache file.

    Raises ValueError for a bad checksum, a foreign or short file,
    solver records that disagree with the modulus's factorization, or
    tables that fail the consistency check.
    """
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) < len(_CACHE_MAGIC) + 10:
        raise ValueError(f"{path}: truncated engine cache")
    # a view, not a copy: the tables below are read-only views into it
    body, crc = memoryview(payload)[:-4], struct.unpack("<I", payload[-4:])[0]
    if zlib.crc32(body) != crc:
        raise ValueError(f"{path}: engine cache checksum mismatch")
    if body[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not an engine cache")
    off = len(_CACHE_MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(body):
            raise ValueError(f"{path}: truncated engine cache")
        fields = struct.unpack_from(fmt, body, off)
        off += size
        return fields

    version, n = take("<IH")
    if version != _CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    (nexp,) = take("<H")
    exps = take(f"<{nexp}Q")
    thr_raw, baby_raw = take("<QQ")
    ctx = make_context(SparsePoly(exps))
    if ctx.n != n:
        raise ValueError(f"{path}: inconsistent modulus degree")
    thr = None if thr_raw == 0 else thr_raw - 1
    baby = None if baby_raw == 0 else baby_raw
    (nsolvers,) = take("<I")
    if nsolvers != len(ctx.factorization):
        raise ValueError(f"{path}: solver count does not match the modulus")
    solvers = []
    predicted = 0
    for prime_power in ctx.factorization:
        p, e, kind, m = take("<QIBQ")
        if (p, e) != prime_power:
            raise ValueError(f"{path}: solver {p}^{e} does not match the modulus")
        if not 1 <= m <= p or kind != (0 if m == p else 1):
            raise ValueError(f"{path}: inconsistent {m}-entry table for prime {p}")
        if off + 16 * m > len(body):
            raise ValueError(f"{path}: truncated engine cache")
        vals = np.frombuffer(body, dtype="<i8", count=m, offset=off)
        idx = np.frombuffer(body, dtype="<i8", count=m, offset=off + 8 * m)
        off += 16 * m
        _check_table(ctx, p, vals, idx, path)
        solvers.append(_PrimePowerSolver(ctx, p, e, (vals, idx)))
        predicted += _model_bytes(m)
    if off != len(body):
        raise ValueError(f"{path}: trailing bytes in engine cache")
    return LogEngine(ctx, solvers, thr, baby, predicted)
