"""Discrete logarithms base x in GF(2^n), via Pohlig-Hellman.

The group order M = 2^n - 1 splits into prime powers; each prime p gets
one subgroup solver, either

* a full table of the order-p subgroup (p entries, O(1) lookups), or
* baby-step giant-step state (a baby table of configurable size m,
  default ceil(sqrt(p)), and a giant block of the first GIANT_BLOCK + 1
  powers of the giant multiplier gp^-m, stored as their g-bit digits:
  ceil(n/g) bytes a step, 4 at n <= 32 and 63 at n = 63, so 64 KiB to
  1008 KiB per solver that the memory model leaves out).

Giant steps run blocked: the elements of a batch still unresolved
share one pass of about GIANT_BLOCK giant steps, a block of steps each
in one grid product (``_BatchField.mul_grid``) against the giant
block's digits, whose last column is where the next pass starts.  A
scalar log runs the same kernel on a one-element array.

Digits of prime powers p^e are lifted one at a time through the order-p
subgroup, so correctness never depends on M being squarefree; a digit
leaves the projection through one of p stored corrections, which an
array applies in one grid product.  A full
tabulation is the m = p extreme of the same trade-off; growing the baby
table past sqrt(p) buys time for memory on group orders whose largest
prime factor is otherwise out of reach.

``LogEngine.discrete_log`` takes an int or a numpy array of elements,
and both run one walk: a tree over the prime powers whose node raises
its value to the product of each part's complement, all parts off one
square chain, and whose leaf holds the projection a^(M/q), which the
solver's leaf kernel logs (``component_log`` on ints, the table lookups
and digit lifts on uint64 arrays in ``component_log_array``).  The
components combine by Garner's mixed radix, the largest prime power
first, which keeps every partial value below M < 2^63 in int64.  Only
the arithmetic differs, ``ctx.batch`` on arrays and ``ctx`` on ints,
and the tree:

* arrays walk the product tree planned once per engine by a subset DP
  that minimises the array products (``_product_tree``);
* ints walk the flat split, one node whose parts are the single prime
  powers in the product tree's leaf order, which the Garner table
  follows.  The DP prices array products only, where a squaring is a
  few gathers; on ints a product and a squaring cost about the same
  (one spread product and its reduction), and the flat split's one
  chain of at most n - 1 squarings measured faster than the tree's
  several chains per scalar log at n = 18, 30 and 43 (43, 84 and 85 µs
  against 50, 92 and 97), as fast at the n = 53 README modulus (114
  µs), and slower only at the dense n = 36 modulus (195 against 166
  µs).  A prime group order such as 2^31 - 1 takes no projection.

The subgroup tables and the giant blocks' digits come from
``ctx.powers`` arrays, so the engines built on one context share its
one array field.

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
    LowMultError,
    MemoryBudgetExceededError,
    ZechUndefinedError,
)
from .gf2poly import FieldContext, SparsePoly, make_context

DEFAULT_TABULATION_ENTRIES = 2**26
DEFAULT_MAX_TABLE_BYTES = 2**31

# Memory model: a table entry is its value and its exponent in two
# sorted int64 arrays, 16 bytes, charged 4/3 times over: the third beyond
# covers a baby-step giant-step solver's bit filter (2 to 4 bytes).
_ENTRY_BYTES = 16

# Planning bytes per element of an array discrete_log: the product tree's
# pending values, the multiplication table of the current square, a
# digit lift's grid of p rows and the int64 Garner update (tracemalloc:
# at most 257.6 B per element of 2048 on tabulated engines at n = 4 to
# 63, at n = 60).
BATCH_LOG_BYTES = 258

_DICT_ACCEL_LIMIT = 2**16  # small full tables also get a plain dict

# Giant steps per pass of a baby-step giant-step lookup, shared by the
# elements the pass carries (each takes GIANT_BLOCK // k of k elements),
# and the work bytes of a pass per step: the grid product, its gather
# and its filter probe (tracemalloc over scalar logs and batches of 2 to
# 2048 at n = 31, 62 and 63, less BATCH_LOG_BYTES per element: at most
# 32.3, for scalar logs at n = 31 and 62).
GIANT_BLOCK = 2**14
GIANT_STEP_BYTES = 34

_CACHE_MAGIC = b"LWMENG1\x00"
_CACHE_VERSION = 1

STRATEGY_TABLE = "table"
STRATEGY_BSGS = "bsgs"


def _model_bytes(entries: int) -> int:
    return -(-entries * 4 // 3) * _ENTRY_BYTES  # ceil(4/3 entries)


def _tabulate(ctx, p, baby_entries):
    """gp^j for j < min(p, baby_entries), where gp = x^(M/p) has order p,
    as (values sorted ascending, their exponents j)."""
    gp = ctx.pow(2, ctx.order // p)
    m = min(p, baby_entries)
    vals = ctx.powers(gp, m)
    if m == p and ctx.mul(int(vals[-1]), gp) != 1:
        raise AssertionError("subgroup enumeration did not close")
    vals = vals.view("<i8")
    order = np.argsort(vals)  # the values are distinct
    return vals[order], order.astype("<i8", copy=False)


class _SubgroupLog:
    """Log lookup in the order-p subgroup generated by gp = x^(M/p).

    vals holds gp^j for j < m sorted ascending and idx the matching j.
    m == p is a full table; a smaller m is the baby table of baby-step
    giant-step, which also keeps
    - the giant block G[t] = gp^(-m t) for t < min(steps + 1,
      GIANT_BLOCK + 1), as its (ceil(n/g), len) uint8 g-bit digits
      (``ctx.batch.digits``), the operand of every pass's grid product:
      ceil(n/g) bytes a step, 4 at n <= 32 and 63 at n = 63, outside
      the memory model;
    - a bit filter of vals indexed by their low bit_length(m) + 4 bits:
      2 to 4 bytes per baby entry, within the model's 16 * 4/3 bytes
      per entry.
    """

    __slots__ = ("p", "m", "vals", "idx", "accel", "steps", "giant_digits",
                 "filter", "mask", "batch")

    def __init__(self, ctx, p, vals, idx):
        self.batch = ctx.batch
        self.p = p
        self.m = m = len(vals)
        self.vals = vals
        self.idx = idx
        self.steps = (p - 1) // m  # 0 for a full table
        # scalar lookups in small full tables go through a plain dict
        self.accel = (
            dict(zip(vals.tolist(), idx.tolist()))
            if not self.steps and m <= _DICT_ACCEL_LIMIT
            else None
        )
        self.giant_digits = self.filter = self.mask = None
        if self.steps:
            self.giant_digits = _giant_digits(ctx, p, m, self.steps)
            self.mask, self.filter = _bit_filter(vals)

    @property
    def strategy(self) -> str:
        return STRATEGY_TABLE if self.m == self.p else STRATEGY_BSGS

    def _find(self, h):
        """Positions in vals of the uint64 array h, and which are hits."""
        cur = h.view(np.int64)
        at = np.minimum(self.vals.searchsorted(cur), self.m - 1)
        return at, self.vals[at] == cur

    def lookup(self, h: int) -> int:
        """j with gp^j == h, for h in the subgroup.  Baby-step
        giant-step runs the blocked kernel of lookup_array on h alone."""
        if self.steps:
            return int(self.lookup_array(np.array([h], np.uint64))[0])
        if self.accel is not None:
            j = self.accel.get(h)
        else:
            i = int(np.searchsorted(self.vals, h))
            j = int(self.idx[i]) if i < self.m and int(self.vals[i]) == h else None
        if j is None:
            raise ValueError("element not found in subgroup (corrupt table?)")
        return j

    def lookup_array(self, h):
        """lookup for every element of the uint64 array h.

        A full table is one searchsorted.  Baby-step giant-step takes
        the elements in runs of at most GIANT_BLOCK >> (g + 3), 8 at
        n <= 56, with g the field's grid digit width, so that a pass's
        table of multiples of its elements (2^g each) is at most an
        eighth of its products.  A run goes in blocked passes
        (_giant_steps).
        """
        if not self.steps:
            at, hit = self._find(h)
            if not hit.all():
                raise ValueError("element not found in subgroup (corrupt table?)")
            return self.idx[at]
        rows = max(1, GIANT_BLOCK >> (self.batch.g + 3))
        out = np.empty(len(h), np.int64)
        for i in range(0, len(h), rows):
            out[i:i + rows] = self._giant_steps(h[i:i + rows])
        return out

    def _giant_steps(self, h):
        """lookup_array of a run h by blocked giant steps.  A pass takes
        the k elements not yet found, all at step s, through the columns
        lo..hi of the giant block G[t] = gp^(-m t) at once: one
        k x (hi - lo + 1) grid product h * G[lo:hi + 1] from G's stored
        digits, at most max(1, GIANT_BLOCK // k) columns and never past
        the last step, self.steps.  The first pass starts at column 0
        (step 0, h itself) and every later one at column 1: its start is
        the last column of the pass before (step s + hi), checked there.
        Each row keeps its first hit, and the rest go on from their last
        column."""
        field = self.batch
        out = np.empty(len(h), np.int64)
        todo = np.arange(len(h))
        s = lo = 0
        while True:
            k = len(todo)
            hi = min(lo - 1 + max(1, GIANT_BLOCK // k),
                     self.giant_digits.shape[1] - 1, self.steps - s)
            w = hi - lo + 1
            prods = field.mul_grid(h, self.giant_digits[:, lo:hi + 1])
            pos, at = self._confirm(prods, self._filter(prods))
            row, col = np.divmod(pos, w)
            first = np.flatnonzero(np.diff(row, prepend=-1))  # rows ascend
            row, col, at = row[first], col[first], at[first]
            out[todo[row]] = (s + lo + col) * self.m + self.idx[at]
            left = np.ones(k, bool)
            left[row] = False
            todo = todo[left]
            if not len(todo):
                return out
            if s + hi == self.steps:
                raise ValueError(
                    "element not found in subgroup (corrupt table?)")
            h = prods.reshape(k, w)[left, w - 1]
            s, lo = s + hi, 1

    def _filter(self, prods):
        """Positions in prods whose low bits the bit filter holds, a
        superset of those in vals, ascending."""
        low = prods & np.uint64(self.mask)
        bit = low.astype(np.uint8)
        bit &= 7
        low >>= np.uint64(3)
        bits = self.filter.take(low.view(np.int64))
        bits >>= bit
        bits &= 1
        return np.flatnonzero(bits.view(bool))  # faster than on uint8

    def _confirm(self, prods, cand):
        """The positions among cand whose products are in vals, ascending,
        and the products' positions in vals.  The candidates go into
        searchsorted in value order, which it runs faster on."""
        cur = prods[cand]
        order = cur.view(np.int64).argsort()
        cand = cand[order]
        at, hit = self._find(cur[order])
        pos, at = cand[hit], at[hit]
        order = pos.argsort()
        return pos[order], at[order]


def _giant_digits(ctx, p, m, steps):
    """The stored giant block of a baby-step giant-step solver with m
    baby entries: the digits (``ctx.batch.digits``) of G[t] = gp^(-m t)
    for t < min(steps + 1, GIANT_BLOCK + 1)."""
    giant = ctx.pow(2, ctx.order // p * (p - m))  # gp^-m
    return ctx.batch.digits(
        ctx.powers(giant, min(steps + 1, GIANT_BLOCK + 1)))


def _bit_filter(vals):
    """(mask, filter) of the baby table vals: bit v & 7 of filter[v >> 3]
    is set for the low bits v = val & mask of every val, with mask the
    low bit_length(len(vals)) + 4 bits."""
    mask = (1 << (len(vals).bit_length() + 4)) - 1
    filt = np.zeros((mask >> 3) + 1, np.uint8)
    low = vals & mask
    bit = (low & 7).astype(np.uint8)
    np.left_shift(np.uint8(1), bit, out=bit)
    low >>= 3
    np.bitwise_or.at(filt, low, bit)
    return mask, filt


class _PrimePowerSolver:
    """Log modulo one prime power q = p^e, digits lifted via order p.
    Digit k < e - 1 of the log, d, is taken out of the projection by a
    product by lift[k][d] = (x^(-M/q))^(p^k d), one of p scalar powers
    (p <= 7 wherever e > 1); an array multiplies by all p in one grid
    product and keeps row d of each element."""

    __slots__ = ("p", "e", "q", "sub", "lift", "p_pows")

    def __init__(self, ctx, p, e, tables):
        """tables: the sorted (vals, idx) of the order-p subgroup."""
        self.p = p
        self.e = e
        self.q = p**e
        self.sub = _SubgroupLog(ctx, p, *tables)
        gq_inv = ctx.pow(2, ctx.order - ctx.order // self.q)  # x^(-M/q)
        self.p_pows = [p**k for k in range(e)]
        self.lift = [[1, *ctx.pows(gq_inv, *range(pk, p * pk, pk))]
                     for pk in self.p_pows[:-1]]

    def component_log(self, ctx, h: int) -> int:
        """The log mod q of a, from its projection h = a^(M/q)."""
        y = 0
        for k, lift in enumerate(self.lift):
            d = self.sub.lookup(ctx.pow(h, self.p_pows[-1 - k]))
            h = ctx.mul(h, lift[d])
            y += d * self.p_pows[k]
        return y + self.sub.lookup(h) * self.p_pows[-1]

    def component_log_array(self, ctx, h):
        """component_log for the uint64 array h of projections."""
        field = ctx.batch
        y = 0
        for k, lift in enumerate(self.lift):
            d = self.sub.lookup_array(field.pow(h, self.p_pows[-1 - k]))
            y += d * self.p_pows[k]
            d *= len(h)
            d += np.arange(len(h))  # row d of the grid, element i
            h = field.mul_grid(np.array(lift, np.uint64),
                               field.digits(h)).take(d)
        return y + self.sub.lookup_array(h) * self.p_pows[-1]


class LogEngine:
    """Per-prime-power solvers plus Garner glue; answers discrete_log and
    zech_log for one field.  Identical answers regardless of which
    primes are tabulated and which fall back to BSGS."""

    def __init__(self, ctx, tables):
        """tables: the sorted (vals, idx) of each order-p subgroup, one
        per prime power of ctx.factorization, in its order."""
        self.ctx = ctx
        self.solvers = [_PrimePowerSolver(ctx, p, e, t)
                        for (p, e), t in zip(ctx.factorization, tables)]
        self.predicted_bytes = sum(_model_bytes(s.sub.m) for s in self.solvers)
        qs = [s.q for s in self.solvers]
        self._tree = _product_tree(qs)
        leaves = _leaves(self._tree)
        # ints project by the flat split, in the tree's leaf order, which
        # the Garner table below follows
        self._flat = (tuple(leaves), tuple(ctx.order // qs[i] for i in leaves))
        # Garner's mixed radix in the order the tree yields its leaves,
        # which is the largest prime power first: then x < Q <= M < 2^63,
        # and (y - x) mod q times Q^-1 mod q stays below q^2 < 2^62,
        # since every other prime power of 2^n - 1 (n <= 63) is below 2^31
        self._garner = {}
        Q = 1
        for i in leaves:
            self._garner[i] = (qs[i], pow(Q, -1, qs[i]), Q)
            Q *= qs[i]

    def discrete_log(self, a: int | np.ndarray) -> int | np.ndarray:
        """k in [0, M-1] with x^k == a, for a != 0.

        a may also be a numpy array of nonzero elements; the answer is
        then the int64 array of their logs.
        """
        ctx = self.ctx
        if isinstance(a, np.ndarray):
            a = a.astype(np.uint64)
            if not a.all():
                raise LogOfZeroError("the zero element has no discrete logarithm")
            field, tree, x = ctx.batch, self._tree, np.zeros(len(a), np.int64)
            leaf = _PrimePowerSolver.component_log_array
        else:
            if a == 0:
                raise LogOfZeroError("the zero element has no discrete logarithm")
            field, tree, x = ctx, self._flat, 0
            leaf = _PrimePowerSolver.component_log
        # a node of the tree over the prime powers S holds b = a^(M/prod
        # S); its child over the part T gets b^prod(S - T), all children
        # off one square chain of b, and a leaf holds the projection
        # a^(M/q).  Only the pending later children stay alive while an
        # earlier subtree runs.
        todo = [(tree, a)]
        del a  # held by todo alone: it goes once the root's children exist
        while todo:
            node, b = todo.pop()
            if isinstance(node, int):
                q, inv, Q = self._garner[node]
                y = leaf(self.solvers[node], ctx, b)
                y -= x
                y %= q
                y *= inv
                y %= q
                y *= Q
                x += y
            else:
                children, exps = node
                powers = field.pows(b, *exps)
                todo.extend(zip(children[::-1], powers[::-1]))
        return x

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


def giant_pass_bytes(engine) -> int:
    """Work bytes of one discrete_log call beyond BATCH_LOG_BYTES per
    element: one giant-step pass, which every call, scalar or batched,
    runs at most one of at a time, where the engine has a baby-step
    giant-step solver, else none."""
    if any(s == STRATEGY_BSGS for _, _, s, _ in engine.strategy_summary()):
        return GIANT_BLOCK * GIANT_STEP_BYTES
    return 0


def _product_tree(qs):
    """The tree over the indices of qs (pairwise coprime, > 1) whose
    projections take the fewest array products.

    A leaf is an index.  A node over the index set S splits it into
    parts and is (children, exponents): the child over the part T gets
    the node's value raised to prod(S - T).  An exponent e costs
    popcount(e) - 1 products; a subset DP over S picks for every node
    the best split in two, or the flat split into single indices, where
    one square chain serves them all.  The part holding the largest q
    comes first, so its leaf runs first.
    """
    k = len(qs)
    prod = [1] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        prod[mask] = prod[mask ^ low] * qs[low.bit_length() - 1]
    muls = [p.bit_count() - 1 for p in prod]
    cost = [0] * (1 << k)
    split = [()] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        best = None
        # every split in two once: the part holding the lowest index is
        # low | sub
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            left = low | sub
            right = mask ^ left
            c = muls[left] + muls[right] + cost[left] + cost[right]
            if best is None or c < best:
                best, split[mask] = c, (left, right)
        flat = tuple(1 << i for i in range(k) if mask >> i & 1)
        c = sum(muls[mask ^ part] for part in flat)
        if c < best:
            best, split[mask] = c, flat
        cost[mask] = best

    largest = 1 << max(range(k), key=qs.__getitem__)

    def node(mask):
        if not mask & (mask - 1):
            return mask.bit_length() - 1
        parts = sorted(split[mask], key=lambda part: not part & largest)
        return (tuple(node(part) for part in parts),
                tuple(prod[mask ^ part] for part in parts))

    return node((1 << k) - 1)


def _leaves(tree):
    """The leaves of a _product_tree in the order the array walk runs them."""
    if isinstance(tree, int):
        return [tree]
    return [leaf for child in tree[0] for leaf in _leaves(child)]


def _plan(ctx, tabulation_threshold, bsgs_baby_entries):
    """Decide per-prime strategy and baby sizes; returns (plan, bytes).

    plan: list of (p, e, baby_entries) where baby_entries == p means a
    full table.  With the default threshold, primes are tabulated in
    ascending order while the running entry total stays within the
    2^26-entry budget; the rest spill to BSGS.
    """
    if bsgs_baby_entries is not None and bsgs_baby_entries < 1:
        raise ValueError("bsgs_baby_entries must be >= 1")
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
            entries = bsgs_baby_entries or isqrt(p - 1) + 1
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
    orders with a huge prime factor.  Each BSGS solver also holds a
    giant block of at most GIANT_BLOCK + 1 powers as their g-bit digits
    (ceil(n/g) bytes a power: 64 KiB at n <= 32, 1008 KiB at n = 63)
    and a bit filter of its baby table (2 to 4 bytes per entry); the
    predicted bytes leave out the block, and the filter fits in the
    model's 16 * 4/3 bytes per entry beside the 16 the table takes.
    """
    if tabulation_threshold is not None and tabulation_threshold < 1:
        raise ValueError("tabulation threshold must be >= 1")
    plan, predicted = _plan(ctx, tabulation_threshold, bsgs_baby_entries)
    check_table_bytes(predicted, max_table_bytes)
    return LogEngine(ctx, [_tabulate(ctx, p, m) for p, _, m in plan])


def check_table_bytes(predicted: int, max_table_bytes: int) -> None:
    """Raise MemoryBudgetExceededError where an engine's predicted table
    bytes pass the cap, whether it is to be built or was loaded."""
    if predicted > max_table_bytes:
        raise MemoryBudgetExceededError(
            f"predicted engine tables need {predicted} bytes "
            f"(cap {max_table_bytes}); raise the cap or lower the threshold"
        )


# -- cache file ----------------------------------------------------------


def save_engine(engine: LogEngine, path: str) -> None:
    """Dump the engine tables to a little-endian cache file.

    Layout: magic, version, modulus exponents, two reserved words
    (written as 0, ignored on load; older files hold the plan's
    tabulation threshold + 1 and baby size there), then per prime power
    the sorted subgroup values and their positions; a CRC32 of
    everything before it trails the payload.
    """
    ctx = engine.ctx
    parts = [_CACHE_MAGIC, struct.pack("<IH", _CACHE_VERSION, ctx.n)]
    exps = ctx.poly.exponents
    parts.append(struct.pack("<H", len(exps)))
    parts.append(struct.pack(f"<{len(exps)}Q", *exps))
    parts.append(struct.pack("<QQ", 0, 0))  # reserved
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

    Raises ValueError for a bad checksum, a foreign or short file, a
    stored modulus that is not a primitive polynomial of degree 2..63,
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
    take("<QQ")  # reserved
    try:
        ctx = make_context(SparsePoly(exps))
    except (LowMultError, ValueError) as exc:
        raise ValueError(f"{path}: engine cache modulus: {exc}") from exc
    if ctx.n != n:
        raise ValueError(f"{path}: inconsistent modulus degree")
    (nsolvers,) = take("<I")
    if nsolvers != len(ctx.factorization):
        raise ValueError(f"{path}: solver count does not match the modulus")
    tables = []
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
        tables.append((vals, idx))
    if off != len(body):
        raise ValueError(f"{path}: trailing bytes in engine cache")
    return LogEngine(ctx, tables)
