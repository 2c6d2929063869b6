"""Integer factorization for group orders up to 2^63 - 1.

Strategy: trial division by every d below 2^10, then Brent's variant
of Pollard's rho on whatever survives, certifying every factor with a
deterministic Miller-Rabin test.  At this scale (63-bit inputs) the
combination always terminates quickly: any composite cofactor left after
trial division is at most 63 bits and has a factor below its square
root, well within rho's reach.
"""

from __future__ import annotations

from math import gcd

_TRIAL_BOUND = 2**10

# Witnesses that make Miller-Rabin deterministic for all m < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin primality test, deterministic for 64-bit inputs."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(m: int) -> int:
    """Return a nontrivial factor of composite odd m (Brent's cycle rho)."""
    if m % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
        c += 1  # rare: the whole cycle collapsed, retry with a new constant


def factorize(m: int) -> list[tuple[int, int]]:
    """Complete prime-power factorization of m, primes ascending.

    Accepts 2 <= m <= 2^63 - 1 and returns [(p1, e1), (p2, e2), ...] with
    p1 < p2 < ... and product p_i^e_i == m.  Every reported prime passes
    Miller-Rabin with the deterministic 64-bit witness set.
    """
    if m < 2:
        raise ValueError("factorize requires m >= 2")
    if m > 2**63 - 1:
        raise ValueError("factorize supports inputs up to 2^63 - 1")
    counts: dict[int, int] = {}
    # a composite d never divides: its prime factors are already out
    for d in range(2, _TRIAL_BOUND):
        if d * d > m:
            break
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return sorted(counts.items())
