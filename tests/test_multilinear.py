import random

from itertools import permutations
from math import comb

import liepairs.multilinear as multilinear
from liepairs.homotopy import build_tower, check_proof_identities, verify_module
from liepairs.multilinear import (
    _shuffles,
    enumerate_shuffles,
    exterior_basis,
    exterior_index,
    insert_with_sign,
    koszul_sign,
    merge_sign,
    sort_with_sign,
    tensor_index,
    tensor_tuples,
    wedge,
)
from liepairs.scalars import GaussScalar, ONE, ZERO
from liepairs.zoo import gl_un_tn


def brute_force_shuffles(p, q):
    """Oracle: filter all permutations of 0..p+q-1 by the monotonicity rules."""
    out = []
    for perm in permutations(range(p + q)):
        if list(perm[:p]) == sorted(perm[:p]) and list(perm[p:]) == sorted(perm[p:]):
            out.append(perm)
    return out


def test_shuffle_edge_cases():
    assert enumerate_shuffles(0, 3) == [(0, 1, 2)]
    assert enumerate_shuffles(3, 0) == [(0, 1, 2)]
    assert enumerate_shuffles(1, 1) == [(0, 1), (1, 0)]


def test_shuffles_against_brute_force():
    for p in range(0, 5):
        for q in range(0, 5):
            if p + q > 8:
                continue
            got = enumerate_shuffles(p, q)
            assert len(got) == comb(p + q, p)
            assert sorted(got) == sorted(brute_force_shuffles(p, q))
            # lexicographic by first block
            assert [s[:p] for s in got] == sorted(s[:p] for s in got)


def test_shuffle_sums_enumerate_each_block_pair_once(monkeypatch):
    # the generalized-Jacobi and coherence sums read one cached tuple per
    # (p, q); a verify --max-n 4 --degree-cap 0 --module B job on u2t2 used
    # to enumerate shuffles 5,999 times
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return enumerate_shuffles(p, q)

    monkeypatch.setattr(multilinear, "enumerate_shuffles", counting)
    _shuffles.cache_clear()
    fx = gl_un_tn(2)
    tower = build_tower(fx.pair, fx.conn_mult, depth=4, module=fx.module_b,
                        conn_e=fx.conn_mult)
    assert verify_module(tower, 4, 0).ok
    assert all(ok for _, ok, _ in check_proof_identities(tower, 0))
    assert calls and len(calls) == len(set(calls))
    for p, q in calls:
        assert _shuffles(p, q) == tuple(enumerate_shuffles(p, q))
        assert isinstance(enumerate_shuffles(p, q), list)


def test_koszul_sign_basics():
    assert koszul_sign((0, 1, 2), [1, 1, 1]) == 1
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((1, 0), [1, 2]) == 1
    assert koszul_sign((1, 0), [2, 2]) == 1


def compose_perms(s, t):
    """(s after t)(i) = s[t[i]]."""
    return tuple(s[t[i]] for i in range(len(s)))


def test_koszul_sign_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        s = list(range(n))
        t = list(range(n))
        rng.shuffle(s)
        rng.shuffle(t)
        s, t = tuple(s), tuple(t)
        st = compose_perms(s, t)
        # Degrees seen by t are those already permuted by s.
        degrees_for_t = [degrees[s[i]] for i in range(n)]
        assert koszul_sign(st, degrees) == \
            koszul_sign(s, degrees) * koszul_sign(t, degrees_for_t)


def test_koszul_sign_matches_bubble_sort_oracle():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 6)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        # Oracle: sort the permuted word back, one adjacent swap at a time.
        word = list(perm)
        sign = 1
        for i in range(n):
            for j in range(n - 1):
                if word[j] > word[j + 1]:
                    if degrees[word[j]] % 2 and degrees[word[j + 1]] % 2:
                        sign = -sign
                    word[j], word[j + 1] = word[j + 1], word[j]
        assert koszul_sign(tuple(perm), degrees) == sign


def basis_coeffs(n, k, idx):
    out = [ZERO] * len(exterior_basis(n, k))
    out[exterior_index(n, k)[idx]] = ONE
    return out


def test_wedge_basic_signs():
    n = 3
    e1 = basis_coeffs(n, 1, (0,))
    e2 = basis_coeffs(n, 1, (1,))
    assert wedge(n, 1, 1, e1, e2) == basis_coeffs(n, 2, (0, 1))
    out = wedge(n, 1, 1, e2, e1)
    expected = [-x for x in basis_coeffs(n, 2, (0, 1))]
    assert out == expected
    # (e1 + e2) ^ e2 = e1 ^ e2 by bilinearity and x ^ x = 0.
    mixed = [a + b for a, b in zip(e1, e2)]
    assert wedge(n, 1, 1, mixed, e2) == basis_coeffs(n, 2, (0, 1))


def rand_coeffs(rng, n, k):
    return [GaussScalar(rng.randint(-3, 3), rng.randint(-1, 1))
            for _ in exterior_basis(n, k)]


def test_wedge_associative_and_graded_commutative_exhaustively():
    rng = random.Random(23)
    for n in range(1, 5):
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                a = rand_coeffs(rng, n, p)
                b = rand_coeffs(rng, n, q)
                ab = wedge(n, p, q, a, b)
                ba = wedge(n, q, p, b, a)
                sign = -1 if (p * q) % 2 else 1
                assert ab == [x if sign > 0 else -x for x in ba]
                for r in range(0, n + 1 - p - q):
                    c = rand_coeffs(rng, n, r)
                    left = wedge(n, p + q, r, ab, c)
                    right = wedge(n, p, q + r, a, wedge(n, q, r, b, c))
                    assert left == right


def test_merge_insert_sort_helpers():
    assert merge_sign((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_sign((0,), (0,)) is None
    assert sort_with_sign([2, 0, 1]) == (1, (0, 1, 2))
    assert sort_with_sign([1, 1]) is None
    assert insert_with_sign((0, 2), 1) == (-1, (0, 1, 2))
    assert insert_with_sign((0, 2), 2) is None


def test_tensor_tuples_order():
    ts = tensor_tuples(2, 2)
    assert ts == ((0, 0), (0, 1), (1, 0), (1, 1))
    for pos, t in enumerate(ts):
        assert tensor_index(t, 2) == pos
