"""Binary polynomials and residue arithmetic in GF(2)[x]/(P).

Two representations are used throughout the package:

* ``SparsePoly`` stores a strictly increasing tuple of exponents.  This
  is the canonical form for searched multiples, whose degrees can be far
  too large for a dense coefficient vector.
* Field elements (residues modulo the primitive polynomial P of degree
  n) are plain Python ints of at most n bits, bit i holding the
  coefficient of x^i.  0 and 1 are the additive and multiplicative
  identities, and addition is ``^``.

``FieldContext`` owns the modulus.  Construction validates that P is
primitive (irreducibility by the distinct-degree criterion, then the
order test x^(M/p) != 1 for every prime p dividing M = 2^n - 1, using
its own factorization of M) and builds its product kernel (``_kernel``):
an element spread one bit to a byte, so that CPython's int product is
the carry-less product, and a Barrett reduction of three such products.
Powers run their whole square chain spread.  Contexts are immutable
after construction and safe to share between threads; all operations
here are pure functions of their inputs.

The same elements also live in uint64 numpy arrays: each context holds
one ``_BatchField`` (``ctx.batch``), its arithmetic on such arrays,
which the batched discrete logs run on; there every product by known
factors is one grid product.  ``ctx.powers(g, count)`` is the one way
to compute a run of powers g^0, g^1, ...: the power array of x^0..x^D
that every search gathers residues from, and the subgroup tables and
giant blocks of the log engines.

The degree cap n <= 63 keeps M, logarithms, and centered shifts inside a
signed 64-bit range; multi-word moduli are out of scope.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DegreeOutOfRangeError, NotPrimitiveError, PolyParseError
from .factorint import factorize

MAX_EXPONENT = 2**63 - 1

# Products in one grid product of FieldContext.powers, which bounds its
# work arrays beside the output, and their bytes per product (powers_bytes):
# 24 for the grid, its gather and the gather's int64 index, the rest for
# its columns' digits (traced: at most 45, at n = 61, over n = 2 to 63).
_POWERS_PRODUCT = 2**15
_POWERS_WORK_BYTES = 49

class SparsePoly:
    """A binary polynomial stored as its sorted tuple of exponents.

    The exponent tuple is strictly increasing with no duplicates (the
    XOR-canonical form); the zero polynomial is the empty tuple.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents=()):
        exps = tuple(exponents)
        for a, b in zip(exps, exps[1:]):
            if a >= b:
                raise ValueError("exponents must be strictly increasing")
        if exps:
            if exps[0] < 0:
                raise ValueError("exponents must be non-negative")
            if exps[-1] > MAX_EXPONENT:
                raise ValueError("exponent exceeds 2^63 - 1")
        self.exponents = exps

    @classmethod
    def canonical(cls, exps: tuple[int, ...]) -> "SparsePoly":
        """The polynomial of an exponent tuple already in canonical form
        (strictly increasing, in [0, MAX_EXPONENT]), without checking it."""
        poly = object.__new__(cls)
        poly.exponents = exps
        return poly

    @classmethod
    def from_terms(cls, terms) -> "SparsePoly":
        """Build the XOR-canonical polynomial from any exponent iterable.

        Exponents appearing an even number of times cancel out.
        """
        acc: set[int] = set()
        for e in terms:
            if e in acc:
                acc.remove(e)
            else:
                acc.add(e)
        return cls(sorted(acc))

    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return len(self.exponents)

    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return self.exponents[-1] if self.exponents else -1

    def has_constant_term(self) -> bool:
        return bool(self.exponents) and self.exponents[0] == 0

    def is_zero(self) -> bool:
        return not self.exponents

    def to_int(self) -> int:
        """Dense coefficient bitmask (bit i = coefficient of x^i)."""
        v = 0
        for e in self.exponents:
            v |= 1 << e
        return v

    def __xor__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly.from_terms(self.exponents + other.exponents)

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __bool__(self):
        return bool(self.exponents)

    def __str__(self):
        return ",".join(str(e) for e in self.exponents)

    def __repr__(self):
        return f"SparsePoly({list(self.exponents)!r})"


def parse_poly(spec: str) -> SparsePoly:
    """Parse a polynomial spec string into canonical form.

    Two formats are accepted:

    * a comma-separated exponent list, e.g. ``"53,47,...,1,0"`` in any
      order; exponent pairs cancel (XOR semantics), so ``"1,1,0"`` is 1;
    * a hex coefficient mask prefixed ``0x``, bit i = coefficient of x^i.
    """
    s = spec.strip()
    if not s:
        raise PolyParseError("empty polynomial spec")
    if s[:2].lower() == "0x":
        try:
            bits = int(s, 16)
        except ValueError:
            raise PolyParseError(f"bad hex coefficient string: {spec!r}") from None
        return SparsePoly([i for i in range(bits.bit_length()) if (bits >> i) & 1])
    terms = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            raise PolyParseError(f"empty token in exponent list: {spec!r}")
        try:
            e = int(tok, 10)
        except ValueError:
            raise PolyParseError(f"bad exponent token {tok!r}") from None
        if e < 0:
            raise PolyParseError(f"negative exponent {e}")
        if e > MAX_EXPONENT:
            raise PolyParseError(f"exponent {e} exceeds 2^63 - 1")
        terms.append(e)
    return SparsePoly.from_terms(terms)


def _poly_mod_int(a: int, b: int) -> int:
    """a mod b for dense GF(2) polynomials as ints, b != 0."""
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _poly_gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod_int(a, b)
    return a


def _kernel(n: int, p: int):
    """(spread, reduce, dense): products modulo the degree-n P (the int p)
    by Kronecker substitution.

    spread(a) puts bit i of a reduced element in byte i of an int.  The
    int product of two spread elements then sums the terms of each
    coefficient in its own byte, at most n <= 63 of them, so no carry
    crosses a byte, and each byte's low bit is that coefficient of the
    GF(2) product.  reduce(c) takes such a product, its bytes not yet
    masked, to the spread residue mod P by Barrett's three products:
    with mu = x^(2n) div P, the quotient c div P is (c div x^n) mu div
    x^n, and the residue is the low n terms of c + q (P - x^n).  No byte
    sum passes 2n - 1.  dense(s) gathers a spread residue back.
    """
    ones = int.from_bytes(b"\1" * 2 * n, "big")
    low = ones >> 8 * n
    zeros = int.from_bytes(b"0" * n, "big")
    shift = 8 * n

    def spread(a):
        # the low bit of "0", "1" and the "b" of bin's "0b" is the digit
        return int.from_bytes(bin(a).encode(), "big") & ones

    mu, r = 0, 1 << 2 * n
    while r.bit_length() > n:
        s = r.bit_length() - 1 - n
        mu |= 1 << s
        r ^= p << s
    mu, tail = spread(mu), spread(p ^ 1 << n)

    def reduce(c):
        q = (c >> shift & ones) * mu >> shift & ones
        return (c + q * tail) & low

    def dense(s):
        return int((s + zeros).to_bytes(n, "big"), 2)

    return spread, reduce, dense


class FieldContext:
    """Residue arithmetic modulo a primitive polynomial P of degree n.

    Attributes:
        poly:          the modulus P as a SparsePoly
        n:             degree of P (2..63)
        order:         multiplicative group order M = 2^n - 1
        factorization: prime-power factorization of M, ascending primes
        mask:          (1 << n) - 1
        batch:         the _BatchField of P, arithmetic on uint64 arrays
    """

    __slots__ = ("poly", "n", "order", "factorization", "mask", "batch",
                 "_p_int", "_spread", "_reduce", "_dense")

    def __init__(self, poly: SparsePoly):
        n = poly.degree()
        if n < 2 or n > 63:
            raise DegreeOutOfRangeError(
                f"modulus degree must be in 2..63, got {n}"
            )
        if not poly.has_constant_term():
            raise NotPrimitiveError("modulus has no constant term (divisible by x)")
        self.poly = poly
        self.n = n
        self.mask = (1 << n) - 1
        self.order = (1 << n) - 1
        self._p_int = poly.to_int()
        self._spread, self._reduce, self._dense = _kernel(n, self._p_int)
        if not self._is_irreducible():
            raise NotPrimitiveError(f"{poly} is reducible")
        self.factorization = factorize(self.order)
        for p, _ in self.factorization:
            if self.pow(2, self.order // p) == 1:
                raise NotPrimitiveError(
                    f"{poly} is irreducible but x has order < 2^{n} - 1"
                )
        self.batch = _BatchField(self)

    # -- construction helpers -------------------------------------------

    def _is_irreducible(self) -> bool:
        # Distinct-degree criterion: P of degree n is irreducible iff
        # gcd(x^(2^i) + x, P) == 1 for all 1 <= i <= n // 2 (a reducible
        # P always has a factor of degree at most n // 2).
        s = 2  # the element x
        for _ in range(self.n // 2):
            s = self.sqr(s)
            if _poly_gcd_int(s ^ 2, self._p_int) != 1:
                return False
        return True

    # -- arithmetic ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product of two reduced elements, through the kernel."""
        spread = self._spread
        return self._dense(self._reduce(spread(a) * spread(b)))

    def sqr(self, a: int) -> int:
        """Square of a reduced element."""
        s = self._spread(a)
        return self._dense(self._reduce(s * s))

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0."""
        return self.pows(a, e)[0] if e else 1

    def pows(self, a: int, *exps: int) -> list[int]:
        """[a^e for e in exps], exponents >= 1, off one square chain of a
        (the scalar twin of _BatchField.pows), run spread: one conversion
        in, one out per power, none where every exponent is 1."""
        top = max(exps).bit_length() - 1
        if not top:
            return [a] * len(exps)
        reduce = self._reduce
        a = self._spread(a)
        out = [None] * len(exps)
        for j in range(top + 1):
            for i, e in enumerate(exps):
                if e >> j & 1:
                    out[i] = a if out[i] is None else reduce(out[i] * a)
            if j < top:
                a = reduce(a * a)
        return list(map(self._dense, out))

    def monomial_residue(self, k: int) -> int:
        """x^k mod P in O(log k) multiplications."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        if k < self.n:
            return 1 << k
        return self.pow(2, k % self.order)

    def powers(self, g: int, count: int) -> np.ndarray:
        """g^t for t < count (count >= 1) as a uint64 array, one grid
        product per step: with k filled, the rows g^k, g^(k+c), ... (at
        most 15 and _POWERS_PRODUCT products, or all that are left) by
        the columns out[:c], c = min(k, count - k, cap), fill out[k:] row
        by row.  The columns' digits are taken once per width, and the
        cap keeps them within _POWERS_WORK_BYTES."""
        field = self.batch
        cap = min(_POWERS_PRODUCT, _POWERS_PRODUCT * (_POWERS_WORK_BYTES - 24)
                  // field.grid_digits)
        out = np.empty(count, dtype=np.uint64)
        out[0] = 1
        k, step, cols = 1, g, field.digits(out[:0])  # step = g^k
        while k < count:
            c = min(k, count - k, cap)
            if cols.shape[1] < c:
                cols = field.digits(out[:c])
            by = step if c == k else int(out[c])  # g^c
            r = min(15, _POWERS_PRODUCT // c, -(-(count - k) // c))
            rows = [step]
            while len(rows) < r:
                rows.append(self.mul(rows[-1], by))
            t = min(r * c, count - k)
            out[k:k + t] = field.mul_grid(np.array(rows, np.uint64),
                                          cols[:, :c])[:t]
            k += t
            if k < count:
                step = self.mul(rows[-1], by)
        return out

    def __repr__(self):
        return f"FieldContext(P={self.poly}, n={self.n})"


class _BatchField:
    """GF(2^n) arithmetic on uint64 arrays of reduced elements.

    Squaring is GF(2)-linear, so it is one gather per byte of the
    input.  The elementwise product (mul_table) runs k-bit digits of
    one factor (k = 4, or less where n + k would pass 64 bits) through a
    table of the other's multiples j*b mod P, Horner-style from the top
    digit; each step shifts by k and folds the k bits above x^(n-1) back
    through one more gather, so no value ever exceeds 64 bits.  Every
    product by known factors (a constant, a run of powers, a digit lift,
    a giant-step pass) is a grid product of every b[i] by every a[t]
    (mul_grid): it takes a's digits stored once, lowest first, g bits
    wide (g = 8, or less where n + g would pass 64 bits), and moves b's
    table of 2^g multiples up by x^g per digit.  One fold table of 2^g
    entries serves both widths, since g >= k.
    """

    def __init__(self, ctx: FieldContext):
        n = ctx.n
        self.n = np.uint64(n)
        self.top = np.uint64(n - 1)
        self.p_int = np.uint64(ctx._p_int)
        self.k = k = min(4, 64 - n)
        self.ndigits = -(-n // k)
        self.kbits = np.uint64(k)
        self.digit_mask = np.uint64((1 << k) - 1)
        self.g = g = min(8, 64 - n)
        self.grid_digits = -(-n // g)
        # fold[h] clears the bits h at x^n.. and adds (h x^n) mod P, for
        # h < 2^g, which covers the k bits of a mul_table step too; by
        # linearity, entries h >= 2^i add the fold of bit i to h - 2^i
        self.fold = np.zeros(1 << g, np.uint64)
        for i in range(g):
            top = 1 << (n + i)
            self.fold[1 << i:2 << i] = self.fold[:1 << i] ^ np.uint64(
                top ^ _poly_mod_int(top, ctx._p_int))
        # sq[j][b] is the square of b at byte j, bits past x^(n-1) cleared;
        # by linearity, entries b >= 2^i add the square of bit i to b - 2^i
        nbytes = -(-n // 8)
        self.sq = np.zeros((nbytes, 256), np.uint64)
        bits = np.array([ctx.sqr(1 << i) if i < n else 0
                         for i in range(8 * nbytes)], np.uint64)
        for i in range(8):
            self.sq[:, 1 << i:2 << i] = (
                self.sq[:, :1 << i] ^ bits[i::8, None])

    def sqr(self, a):
        byte = np.uint64(0xFF)
        out = self.sq[0].take((a & byte).view(np.int64))
        for j in range(1, len(self.sq)):
            out ^= self.sq[j].take(((a >> np.uint64(8 * j)) & byte).view(np.int64))
        return out

    def _multiples(self, b, bits):
        """(2^bits, len(b)) array: row j holds j*b mod P."""
        low = min(bits, 4)
        rows = np.empty((1 << low, len(b)), dtype=np.uint64)
        rows[0] = 0
        rows[1] = b
        h = b
        for i in range(1, low):  # rows 2^i.. are rows ..2^i plus x^i b
            h = (h << np.uint64(1)) ^ ((h >> self.top) * self.p_int)
            np.bitwise_xor(rows[:1 << i], h, out=rows[1 << i:2 << i])
        if bits > low:  # row 16 j + i is row j times x^4 plus row i
            up = rows[:1 << (bits - low)] << np.uint64(low)
            up ^= self.fold.take((up >> self.n).view(np.int64))
            rows = (up[:, None] ^ rows).reshape(-1, len(b))
        return rows

    def table(self, b):
        """Multiples j*b mod P for j < 2^k of the array b, laid out flat
        (entry j of element i at j*len(b) + i) with its row offsets."""
        return self._multiples(b, self.k).ravel(), np.arange(len(b))

    def mul_table(self, table, a):
        """a times the array whose table this is, elementwise.  Gathers
        index with int64 through take: a uint64 index would be converted
        on every gather."""
        flat, offsets = table
        k, mask = self.kbits, self.digit_mask
        acc = None
        for d in range(self.ndigits - 1, -1, -1):
            j = ((a >> np.uint64(k * d)) & mask).view(np.int64)
            j *= len(offsets)
            j += offsets
            if acc is None:
                acc = flat.take(j)
                continue
            acc <<= k
            acc ^= self.fold.take((acc >> self.n).view(np.int64))
            acc ^= flat.take(j)
        return acc

    def mul(self, a, b):
        """a * b elementwise for an array b, or as one grid row for an int."""
        if isinstance(b, np.ndarray):
            return self.mul_table(self.table(b), a)
        return self.mul_grid(np.array([b], np.uint64), self.digits(a))

    def digits(self, a):
        """The g-bit digits of the uint64 array a as a (grid_digits,
        len(a)) uint8 array, row d holding digit d (bits gd..gd+g-1)."""
        out = np.empty((self.grid_digits, len(a)), np.uint8)
        for d, row in enumerate(out):  # cast as it is written
            row[:] = (a >> np.uint64(self.g * d)) & np.uint64((1 << self.g) - 1)
        return out

    def mul_grid(self, b, digits):
        """b[i] * a[t] at position i * w + t, for the uint64 array b and
        the (grid_digits, w) digits of a (self.digits(a), or a column
        slice of them).  Digit d reads the table of b x^(gd), whose row i
        holds j b[i] x^(gd) for j < 2^g: one take along every row by the
        digits, one XOR into the grid.  Between digits the table moves
        up by x^g: a shift and a fold gather over its 2^g len(b)
        entries."""
        rows = self._multiples(b, self.g).T.copy()  # row i: j*b[i], j < 2^g
        grid = rows.take(digits[0], axis=1)
        for d in digits[1:]:
            rows <<= np.uint64(self.g)
            rows ^= self.fold.take((rows >> self.n).view(np.int64))
            grid ^= rows.take(d, axis=1)
        return grid.ravel()

    def pow(self, a, e: int):
        """a^e for a fixed exponent e >= 1."""
        return self.pows(a, e)[0]

    def pows(self, a, *exps):
        """[a^e for e in exps], exponents >= 1, off one square chain of a:
        a^(2^j) is multiplied into every power whose exponent has bit j
        set, through one table of it."""
        out = [None] * len(exps)
        top = max(exps).bit_length() - 1
        for j in range(top + 1):
            table = None
            for i, e in enumerate(exps):
                if e >> j & 1:
                    if out[i] is None:
                        out[i] = a
                    else:
                        if table is None:
                            table = self.table(a)
                        out[i] = self.mul_table(table, out[i])
            if j < top:
                a = self.sqr(a)
        return out


def powers_bytes(count: int, beside: int = 0) -> int:
    """Peak bytes of ctx.powers(g, count) and of `beside` bytes allocated
    later while its output is held: the uint64 output, and the larger of
    `beside` and the work of its largest grid product."""
    return count * 8 + max(
        min(count - 1, _POWERS_PRODUCT) * _POWERS_WORK_BYTES, beside)


def make_context(poly: SparsePoly) -> FieldContext:
    """Validate P and attach the factorization of 2^n - 1.

    Raises DegreeOutOfRangeError unless 2 <= deg P <= 63 and
    NotPrimitiveError when P is reducible or x generates a proper
    subgroup.
    """
    return FieldContext(poly)


def residue(p: SparsePoly, ctx: FieldContext) -> int:
    """p mod P: the XOR of monomial residues over p's exponents."""
    acc = 0
    for e in p.exponents:
        acc ^= ctx.monomial_residue(e)
    return acc


def verify_multiple(m: SparsePoly, ctx: FieldContext, w: int, D: int) -> bool:
    """Check that m is a nonzero constant-term multiple of P with
    weight <= w and degree <= D."""
    if m.is_zero() or not m.has_constant_term():
        return False
    if m.weight() > w or m.degree() > D:
        return False
    return residue(m, ctx) == 0


def random_primitive_poly(n: int, rng: random.Random) -> SparsePoly:
    """Draw a uniformly random primitive polynomial of degree n.

    Rejection sampling over monic degree-n polynomials with constant
    term 1; at these sizes a few dozen draws suffice.
    """
    if n < 2 or n > 63:
        raise DegreeOutOfRangeError(f"degree must be in 2..63, got {n}")
    while True:
        bits = (1 << n) | (rng.getrandbits(n - 1) << 1) | 1
        poly = SparsePoly([i for i in range(n + 1) if (bits >> i) & 1])
        try:
            make_context(poly)
        except NotPrimitiveError:
            continue
        return poly
