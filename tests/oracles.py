"""Reference evaluations shared by the test modules.

Each evaluates what the library computes by a separate route: the
differential of a graded element as a dense cochain through ce_diff and back,
the brackets with that differential at arity one, the Leibniz and module
identities as their own shuffle/Koszul loops over single brackets, and the
basis elements of Lambda g* (x) M (x C) enumerated afresh.
"""

from liepairs.ce import Cochain, ce_diff
from liepairs.homotopy import GradedElement, lambda_k, mu_k
from liepairs.lie_core import tensor_module
from liepairs.multilinear import (
    enumerate_shuffles,
    exterior_basis,
    koszul_sign,
)


def dense_graded_diff(pair, base_module, el, algebra=None):
    """The round trip graded_diff replaced: per exterior degree, a dense
    cochain through ce_diff and back."""
    module = base_module if algebra is None \
        else tensor_module(base_module, algebra.module)
    cdim = algebra.dim if algebra is not None else None
    out = GradedElement(pair, el.mdim, cdim)
    by_degree = {}
    for key, val in el.terms.items():
        by_degree.setdefault(len(key[0]), {})[key] = val
    for k, terms in sorted(by_degree.items()):
        w = Cochain(pair, module, k, 0)
        for key, val in terms.items():
            midx = key[1] if cdim is None else key[1] * cdim + key[2]
            w.set(key[0], (), midx, val)
        for gt, _, midx, c in ce_diff(w).iter_nonzero():
            if cdim is None:
                out.add_term((gt, midx), c)
            else:
                out.add_term((gt, midx // cdim, midx % cdim), c)
    return out


def oracle_lambda(tower, args, algebra=None):
    if len(args) == 1:
        return dense_graded_diff(tower.pair, tower.pair.quotient_module(),
                                 args[0], algebra)
    return lambda_k(tower, args, algebra)


def oracle_mu(tower, vargs, w, algebra=None):
    if not vargs:
        return dense_graded_diff(tower.pair, tower.module, w, algebra)
    return mu_k(tower, vargs, w, algebra)


def oracle_leibniz_residual(tower, vs, algebra=None):
    """The generalized Jacobi sum as leibniz_residual once wrote it out."""
    n = len(vs)
    degs = [v.degree() for v in vs]
    cdim = algebra.dim if algebra is not None else None
    total = GradedElement(tower.pair, tower.pair.dim_b, cdim)
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            for sigma in enumerate_shuffles(k - j, j - 1):
                eps = koszul_sign(sigma, degs[: k - 1])
                front = sum(degs[sigma[m]] for m in range(k - j))
                sign = eps * (-1 if front % 2 else 1)
                inner_args = [vs[sigma[m]] for m in range(k - j, k - 1)] \
                    + [vs[k - 1]]
                inner = oracle_lambda(tower, inner_args, algebra)
                if inner.is_zero():
                    continue
                outer_args = [vs[sigma[m]] for m in range(k - j)] + [inner] \
                    + vs[k:]
                term = oracle_lambda(tower, outer_args, algebra)
                total = total + (term if sign > 0 else -term)
    return total


def oracle_module_residual(tower, vs, w, algebra=None):
    """The module identity as module_residual once wrote it: one loop for the
    brackets that take a lambda_k inside, one for those that nest two mu_k."""
    n = len(vs) + 1
    degs = [v.degree() for v in vs]
    cdim = algebra.dim if algebra is not None else None
    total = GradedElement(tower.pair, tower.module.dim, cdim)
    for j in range(1, n):
        for k in range(j, n):
            for sigma in enumerate_shuffles(k - j, j - 1):
                eps = koszul_sign(sigma, degs[: k - 1])
                front = sum(degs[sigma[m]] for m in range(k - j))
                sign = eps * (-1 if front % 2 else 1)
                inner_args = [vs[sigma[m]] for m in range(k - j, k - 1)] \
                    + [vs[k - 1]]
                inner = oracle_lambda(tower, inner_args, algebra)
                if inner.is_zero():
                    continue
                front_args = [vs[sigma[m]] for m in range(k - j)]
                term = oracle_mu(tower, front_args + [inner] + list(vs[k:]),
                                 w, algebra)
                total = total + (term if sign > 0 else -term)
    for j in range(1, n + 1):
        for sigma in enumerate_shuffles(n - j, j - 1):
            eps = koszul_sign(sigma, degs)
            front = sum(degs[sigma[m]] for m in range(n - j))
            sign = eps * (-1 if front % 2 else 1)
            inner = oracle_mu(tower, [vs[sigma[m]] for m in range(n - j, n - 1)],
                              w, algebra)
            if inner.is_zero():
                continue
            term = oracle_mu(tower, [vs[sigma[m]] for m in range(n - j)], inner,
                             algebra)
            total = total + (term if sign > 0 else -term)
    return total


def oracle_basis(pair, mdim, degree_cap, algebra=None):
    cdim = algebra.dim if algebra is not None else None
    out = []
    for k in range(min(degree_cap, pair.dim_g) + 1):
        for gt in exterior_basis(pair.dim_g, k):
            for e in range(mdim):
                if cdim is None:
                    out.append(GradedElement.basis(pair, mdim, gt, e))
                else:
                    out += [GradedElement.basis(pair, mdim, gt, e, cdim, c)
                            for c in range(cdim)]
    return out
