"""Rank-one weight combinatorics at a fixed odd prime p and level r.

Conventions, used throughout the package: the weight lattice of SL2 is the
integers, the half-sum of positive roots is 1, the positive root is 2, and
the dominant weights are the non-negative integers.  The affine reflection
with index n acts through the rho-shifted ("dot") action and fixes the point
n*p - 1, so it sends lam to 2*(n*p - 1) - lam.  The fundamental alcove is the
interval [0, p-2]; the points congruent to -1 mod p are the walls.  The dot
orbits are infinite dihedral, so strong linkage is a congruence mod 2p.

Weights are plain ints.  The pair (p, r) travels in an explicit `Context`, so
the same integer can be re-read at any level r (the head/tail of a p-adic
split depend on r).

Everything here is a pure function of its arguments and `Context` is frozen,
so the module is safe to use from any number of threads.
"""

from __future__ import annotations

from typing import NamedTuple


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class _ContextFields(NamedTuple):
    p: int
    r: int


class Context(_ContextFields):
    """A prime p >= 3 and a level r >= 1: an immutable record, validated in
    `__new__`, which copies and unpickling go through too."""

    __slots__ = ()

    def __new__(cls, p: int, r: int = 1) -> Context:
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if r < 1:
            raise ValueError(f"r must be a positive integer, got {r}")
        return super().__new__(cls, p, r)

    @property
    def q(self) -> int:
        """The box size p**r at this level."""
        return self.p**self.r


class PadicSplit(NamedTuple):
    head: int  # in [0, p**r)
    tail: int  # head + p**r * tail reconstructs the weight


def padic_split(lam: int, ctx: Context) -> PadicSplit:
    """Write lam = head + p**r * tail with head in [0, p**r).

    Euclidean division with non-negative remainder, so negative weights get
    the unique head inside the fundamental box.
    """
    tail, head = divmod(lam, ctx.q)
    return PadicSplit(head, tail)


def tilde(lam: int, ctx: Context) -> int:
    """The bijection 2*(p**r - 1) - head + p**r * tail: the highest weight of
    the projective cover of the simple object with highest weight lam.

    It fixes every weight congruent to -1 mod p**r and carries the box
    p**r * m + [0, p**r) onto the translated box p**r * (m+1) - 1 + [0, p**r).
    Applied twice it shifts a non-fixed weight up by the tensor period
    2 * p**r, so it is an involution on twist classes but not on the
    integers themselves.
    """
    q = ctx.q
    return lam + 2 * (q - 1 - lam % q)  # the formula above, as q * tail = lam - head


def dot_reflect(lam: int, wall_index: int, ctx: Context) -> int:
    """Reflect lam in the wall at wall_index*p - 1 (dot action)."""
    return 2 * (wall_index * ctx.p - 1) - lam


def dot_orbit(lam: int, lo: int, hi: int, ctx: Context) -> set[int]:
    """The dot orbit of lam, {lam + 2kp} union {-lam - 2 + 2kp}, clipped to
    [lo, hi].  For wall and special weights the two families coincide."""
    if lo > hi:
        raise ValueError("dot_orbit requires lo <= hi")
    p2 = 2 * ctx.p
    out: set[int] = set()
    for base in (lam, -lam - 2):
        # smallest k with base + 2kp >= lo
        k = -((base - lo) // p2)
        x = base + p2 * k
        while x <= hi:
            out.add(x)
            x += p2
    return out


def strongly_linked(mu: int, lam: int, ctx: Context) -> bool:
    """True iff mu can be raised to lam by a chain of weight-increasing dot
    reflections: mu == lam, or mu < lam in the dot orbit of lam.  Reflections
    keep the orbit, and every orbit point above mu is reached: -mu - 2 + 2kp
    by one up-reflection, through the wall midway between the two; mu + 2kp
    by two, through the lowest wall above mu, then the wall k steps higher
    (by one, through the wall kp above mu, if mu is on a wall).
    """
    p2 = 2 * ctx.p
    return mu == lam or (mu < lam and ((lam - mu) % p2 == 0 or (lam + mu + 2) % p2 == 0))
