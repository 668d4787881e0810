"""Seeded fixture files for the benchmark workloads.

    python3 perfbench/fixtures.py WORKLOAD SEED OUTDIR

writes the workload's fixture JSON files into OUTDIR, with ``src`` of the
tree on PYTHONPATH.  The seed changes values, never dimensions:

* ``sweep-u2t2`` rewrites the u(2)+t(2) matched pair and its
  ``matrix_mult`` connection in a seeded signed permutation of the basis
  (within the subalgebra and within the complement).  Every tensor keeps its
  number of nonzeros and its integer (Gaussian) values, so the work a job
  does is the same for every seed while its output is not.
* ``obstruction`` draws Gaussian connections from
  ``liepairs.zoo.random_extension``.  Its flat modules come from
  ``liepairs.zoo.random_module`` with fixed seeds: their weights decide the
  cohomology and so the elimination work, which varied with the seed when
  the seed drew them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

# Module imports, not names, so that a traced pass sees these calls.
from liepairs import atiyah, fixture_io, lie_core, linalg, zoo


def permute_basis(conn, rng):
    """The pair and connection of ``conn`` in the basis x'_j = s_j x_p(j).

    p permutes the subalgebra indices among themselves and the complement
    indices among themselves; the signs s_j are +-1.
    """
    pair = conn.pair
    n, m = pair.dim_d, pair.dim_g
    p = rng.sample(range(m), m) + rng.sample(range(m, n), n - m)
    s = [rng.choice((1, -1)) for _ in range(n)]

    def signed(x, sign):
        return x if sign > 0 else -x

    c = [[[signed(pair.d.c[p[i]][p[j]][p[k]], s[i] * s[j] * s[k])
           for k in range(n)] for j in range(n)] for i in range(n)]
    new_pair = lie_core.LiePair(lie_core.LieAlgebra(n, c), m)
    q = [p[m + r] - m for r in range(n - m)]

    def on_b(mat, sign):
        return linalg.Matrix.from_rows(
            [[signed(mat[q[r], q[u]], sign * s[m + r] * s[m + u])
              for u in range(n - m)] for r in range(n - m)])

    nabla = [on_b(conn.nabla[p[j]], s[j]) for j in range(n)]
    return atiyah.Connection(new_pair, new_pair.quotient_module(), nabla)


def _matrix_mult_fixture(n, rng):
    conn = permute_basis(zoo.gl_un_tn(n).conn_mult, rng)
    return fixture_io.dump_fixture(conn.pair, {"B": conn.module},
                                   connections={"matrix_mult": conn.nabla})


# Weights (-1, 2) and (-1, 0, -2) times the character of u(2) that kills
# su(2).
E2_SEED = 1
E3_SEED = 4


def _obstruction_fixtures(rng):
    seeds = [rng.randrange(2 ** 31) for _ in range(4)]
    u2t2 = zoo.gl_un_tn(2).pair
    b = u2t2.quotient_module()
    e2 = zoo.random_module(u2t2, 2, E2_SEED)
    e3 = zoo.random_module(u2t2, 3, E3_SEED)
    u2t2_conns = {
        "gauss_B": zoo.random_extension(u2t2, b, seeds[0]).nabla,
        "gauss_E2": zoo.random_extension(u2t2, e2, seeds[1]).nabla,
        "gauss_E3": zoo.random_extension(u2t2, e3, seeds[2]).nabla,
    }
    gl3 = zoo.gl_un_tn(3).pair
    t1 = zoo.trivial_module(gl3.dim_g, 1)
    gl3_conns = {"gauss_T1": zoo.random_extension(gl3, t1, seeds[3]).nabla}
    return {
        "u2t2.json": fixture_io.dump_fixture(
            u2t2, {"B": b, "E2": e2, "E3": e3}, connections=u2t2_conns),
        "gl3.json": fixture_io.dump_fixture(
            gl3, {"T1": t1}, connections=gl3_conns),
    }


def build(workload, seed):
    """{file name: fixture document} for one workload and seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep-u2t2":
        return {"u2t2.json": _matrix_mult_fixture(2, rng)}
    if workload == "obstruction":
        return _obstruction_fixtures(rng)
    raise ValueError("unknown workload %r" % workload)


def write(docs, outdir):
    """Write the documents as the CLI's own zoo export does; return digests."""
    os.makedirs(outdir, exist_ok=True)
    digests = {}
    for name, doc in sorted(docs.items()):
        raw = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        with open(os.path.join(outdir, name), "wb") as handle:
            handle.write(raw)
        digests[name] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return digests


def main(argv):
    workload, seed, outdir = argv
    digests = write(build(workload, int(seed)), outdir)
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
