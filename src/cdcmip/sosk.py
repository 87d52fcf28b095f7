"""Closed-form constructions for windowed ("at most k consecutive") constraints.

The family of all length-k windows over 1..n admits a path junction tree, and
its conflict graph (pairs at distance >= k) has an explicit cover: a dyadic
halving scheme produces one biclique per binary split, and splits on the
same level that sit far enough apart can be fused by alternating their
sides.  The fused cover has at most ceil(log2(n-k+1)) + k - 2 members.
"""

from __future__ import annotations

from typing import NamedTuple

from .cdc import IndexSetFamily
from .cover import Biclique, BicliqueCover
from .errors import InputError, InvariantError
from .jtree import CandidateTree


def _ceil_log2(x: int) -> int:
    if x < 1:
        raise InputError("logarithm argument must be positive")
    return (x - 1).bit_length()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _interval(lo: int, hi: int) -> frozenset[int]:
    return frozenset(range(lo, hi + 1))


def sosk_family(n: int, k: int) -> IndexSetFamily:
    """The n-k+1 consecutive windows of length k over 1..n."""
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    return IndexSetFamily([range(i, i + k) for i in range(1, n - k + 2)])


def sosk_junction_tree(n: int, k: int) -> CandidateTree:
    """The path over consecutive windows; adjacent windows overlap in k-1 indices."""
    if not 1 <= k < n:
        raise InputError("need n > k >= 1")
    family = sosk_family(n, k)
    return CandidateTree(family, [(i, i + 1) for i in range(len(family) - 1)])


def sosk_base_cover(b: int, k: int) -> BicliqueCover:
    """The dyadic halving cover for window count 2**b, one biclique per split.

    Level i has 2**i blocks of windows; splitting block j in half separates
    the leading indices of the left half from the trailing indices of the
    right half, with the k-1 overlap indices around the split removed.
    """
    if b < 1 or k < 2:
        raise InputError("need b >= 1 and k >= 2")
    out = []
    for i in range(b):
        for j in range(2**i):
            half = 2 ** (b - i - 1)
            side_a = _interval(1 + j * 2 * half, (2 * j + 1) * half)
            side_b = _interval((2 * j + 1) * half + k, (j + 1) * 2 * half + k - 1)
            out.append(Biclique(side_a, side_b))
    return BicliqueCover(out)


def sosk_merge_period(b: int, k: int, i: int) -> int:
    """Same-level splits this many blocks apart can be fused without clashes."""
    return _ceil_div(k - 1 + 2 ** (b - i - 1), 2 ** (b - i))


def sosk_merged_cover(b: int, k: int) -> BicliqueCover:
    """Fuse same-level bicliques whose block positions repeat with the safe period.

    Within level i, positions congruent modulo the period are combined,
    alternating side orientation every period so that fused sides stay at
    distance >= k.  Exactly min(period, 2**i) bicliques survive per level.
    Level i, block j is the base cover's biclique at position 2**i - 1 + j.
    """
    base = sosk_base_cover(b, k)
    out = []
    for i in range(b):
        alpha = sosk_merge_period(b, k, i)
        for p in range(min(alpha, 2**i)):
            left: set[int] = set()
            right: set[int] = set()
            for j in range(p, 2**i, alpha):
                bc = base[2**i - 1 + j]
                if (j - p) // alpha % 2 == 0:
                    left |= bc.side_a
                    right |= bc.side_b
                else:
                    left |= bc.side_b
                    right |= bc.side_a
            out.append(Biclique(frozenset(left), frozenset(right)))
    return BicliqueCover(out)


def _binary_label_cover(n: int) -> BicliqueCover:
    """Cover of the complete graph on 1..n by bit-value splits of the labels."""
    out = []
    for bit in range(_ceil_log2(n)):
        zeros = frozenset(v for v in range(1, n + 1) if not (v - 1) >> bit & 1)
        ones = frozenset(v for v in range(1, n + 1) if (v - 1) >> bit & 1)
        out.append(Biclique(zeros, ones))
    return BicliqueCover(out)


def sosk_cover(n: int, k: int) -> BicliqueCover:
    """Cover for arbitrary n > k: build at the next power-of-two size and truncate.

    Restricting the conflict graph to 1..n keeps it induced, so clipping
    every side to 1..n (and dropping bicliques that lose a side) covers it.
    For k = 1 the conflict graph is complete and the bit-label cover is used
    instead.
    """
    if not 1 <= k < n:
        raise InputError("need n > k >= 1")
    if k == 1:
        return _binary_label_cover(n)
    b = _ceil_log2(n - k + 1)
    window = frozenset(range(1, n + 1))
    out = []
    for bc in sosk_merged_cover(b, k):
        a = bc.side_a & window
        bb = bc.side_b & window
        if a and bb:
            out.append(Biclique(a, bb))
    return BicliqueCover(out)


class SizeIdentity(NamedTuple):
    lhs: int
    bound: int


def sosk_size_identity(b: int, k: int) -> SizeIdentity:
    """Per-level surviving-biclique total against the closed-form bound b + k - 2."""
    if b < 1 or k < 2:
        raise InputError("need b >= 1 and k >= 2")
    lhs = sum(min(2**i, sosk_merge_period(b, k, i)) for i in range(b))
    bound = b + k - 2
    if lhs > bound:
        raise InvariantError(f"level total {lhs} exceeds bound {bound}")
    return SizeIdentity(lhs, bound)


class BoundComparison(NamedTuple):
    ours: int
    huchette_vielma: int
    kis_horvath: int


def compare_bounds(n: int, k: int) -> BoundComparison:
    """Binary-variable counts of this cover versus the two published baselines."""
    if not 2 <= k < n:
        raise InputError("need n > k >= 2")
    ours = _ceil_log2(n - k + 1) + k - 2
    hv = _ceil_log2(_ceil_div(n, k) - 1) + 3 * k
    if not ours < hv:
        raise InvariantError(f"expected {ours} < {hv} for n={n}, k={k}")
    return BoundComparison(ours, hv, n)
