"""Combinatorial substrate: exterior multi-indices, shuffles, Koszul signs.

Conventions used everywhere in the library:
  * exterior basis of degree k = strictly increasing index tuples, lex order;
  * every wedge sign comes from counting inversions in a sorted merge;
  * a (p,q)-shuffle is a permutation of 0..p+q-1 increasing on its first p
    and last q letters, enumerated lexicographically by first block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .scalars import ZERO


@lru_cache(maxsize=None)
def exterior_basis(n: int, k: int):
    """Sorted k-subsets of range(n) as tuples, lexicographic order."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def exterior_index(n: int, k: int):
    """Map from sorted k-tuple to its position in exterior_basis(n, k)."""
    return {idx: pos for pos, idx in enumerate(exterior_basis(n, k))}


def enumerate_shuffles(p: int, q: int):
    """All (p,q)-shuffles of 0..p+q-1; length comb(p+q, p)."""
    if p < 0 or q < 0:
        raise ValueError("negative block size")
    n = p + q
    out = []
    for first in combinations(range(n), p):
        chosen = set(first)
        second = tuple(x for x in range(n) if x not in chosen)
        out.append(first + second)
    assert len(out) == comb(n, p)
    return out


@lru_cache(maxsize=None)
def _shuffles(p: int, q: int):
    """enumerate_shuffles(p, q) as a tuple, built once per (p, q) for the
    shuffle sums that run it per tuple."""
    return tuple(enumerate_shuffles(p, q))


def koszul_sign(perm, degrees) -> int:
    """Sign from permuting graded symbols: v_{s(0)} ... v_{s(n-1)} =
    sign * v_0 ... v_{n-1} in the free graded-commutative algebra."""
    if len(perm) != len(degrees):
        raise ValueError("permutation/degree length mismatch")
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and degrees[perm[i]] % 2 and degrees[perm[j]] % 2:
                sign = -sign
    return sign


def merge_sign(left, right):
    """(sign, merged tuple) for wedging two sorted index tuples; None on overlap.

    The sign is (-1)^inversions for the shuffle sorting left+right.
    """
    i, j = 0, 0
    sign = 1
    merged = []
    nl = len(left)
    while i < nl and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (nl - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def sort_with_sign(indices):
    """(sign, sorted tuple) for an arbitrary index list; None on repeats."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
            elif seq[j] == seq[j + 1]:
                return None
    return sign, tuple(seq)


def wedge(n: int, p: int, q: int, a, b):
    """Exact wedge of dense coefficient lists on Lambda^p and Lambda^q.

    Returns dense coefficients on Lambda^(p+q) w.r.t. exterior_basis(n, p+q),
    each wedge of basis forms read off the kernels' table, ce._merge_table.
    """
    from .ce import _merge_table
    if len(a) != len(exterior_basis(n, p)) or \
            len(b) != len(exterior_basis(n, q)):
        raise ValueError("coefficient length mismatch")
    out = [ZERO] * len(exterior_basis(n, p + q))
    for ca, row in zip(a, _merge_table(n, p, q)):
        for cb, step in zip(b, row):
            if step is not None and ca and cb:
                out[step[0]] += ca * cb if step[1] > 0 else -(ca * cb)
    return out


def tensor_tuples(dim: int, arity: int):
    """All arity-long tuples over range(dim), big-endian mixed radix order."""
    if arity == 0:
        return ((),)
    out = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in range(dim)]
    return tuple(out)


def tensor_index(t, dim: int) -> int:
    idx = 0
    for x in t:
        idx = idx * dim + x
    return idx
