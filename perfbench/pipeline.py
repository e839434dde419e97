"""The library program of the `pipeline` workload, and canonical digests of its
outputs.

The pipeline runs the full non-oracle chain at n = N: enumerate_faces ->
build_matching -> verify_acyclic -> every boundary matrix -> every Morse
restricted boundary -> the triangular solver on seeded cycles ->
build_subcomplex and homology_basis for k = 3..N-1.  `cx` is passed
explicitly everywhere.

The solver's inputs come from a fixed pool of POOL cycles per level; the
seed only chooses which PER_LEVEL of them run, so every output has a golden
digest recorded once for the whole pool.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback

N = 8
POOL = 16
PER_LEVEL = 4


def draws(seed: int) -> list[tuple[int, int]]:
    """The (level, pool index) pairs the solver runs for one seed."""
    rng = random.Random(seed)
    return [(k, i) for k in range(N) for i in rng.sample(range(POOL), PER_LEVEL)]


def pool_cycle(hc, bmat, k: int, i: int):
    """Cycle i of the level-k pool: the boundary of a small random
    (k+1)-chain, so it is a k-cycle the solver must be able to lift."""
    rng = random.Random(f"halfcube-cycle:{N}:{k}:{i}")
    cols = rng.sample(range(bmat.n_cols), min(bmat.n_cols, rng.randint(1, 4)))
    coeffs: dict[int, int] = {}
    for j in cols:
        a = rng.choice((-2, -1, 1, 2))
        for r, v in bmat.cols[j].items():
            coeffs[r] = coeffs.get(r, 0) + a * v
    return hc.chains.ChainVector(k, coeffs)


class Failed:
    """Stands in for the output of a stage that raised."""

    def __init__(self, exc: BaseException):
        self.error = "".join(traceback.format_exception(exc)).strip()


def op_names(solves) -> list[str]:
    """The names `run` gives its stages, in order."""
    return (["enumerate", "build_matching", "verify_acyclic"]
            + [f"boundary.{d}" for d in range(N + 1)]
            + [f"morse_boundary.{k}" for k in range(N)]
            + [f"solve.{k}.{i}" for k, i in solves]
            + [f"{s}.{k}" for k in range(3, N) for s in ("subcomplex", "basis")])


def run(hc, solves) -> list[tuple[str, object]]:
    """Run every stage once, in order, and return (op name, output) pairs;
    a stage that raises yields a `Failed` and the run continues."""
    out: list[tuple[str, object]] = []

    def stage(name, fn, *args):
        try:
            value = fn(*args)
        except Exception as e:  # counted as a failed op, not a crash
            value = Failed(e)
        out.append((name, value))
        return value

    table = stage("enumerate", hc.faces.enumerate_faces, N)
    m = stage("build_matching", hc.morse.build_matching, table)
    stage("verify_acyclic", hc.morse.verify_acyclic, m, table)
    cx = hc.chains.ChainComplex(table)
    bmats = [stage(f"boundary.{d}", cx.boundary, d) for d in range(N + 1)]
    mbs = [stage(f"morse_boundary.{k}", hc.morse.morse_boundary, m, table, k, cx)
           for k in range(N)]

    def solve(k, i):
        y = pool_cycle(hc, bmats[k + 1], k, i)
        return hc.morse.solve_cycle(y, m, table, cx, mbs[k])

    for k, i in solves:
        stage(f"solve.{k}.{i}", solve, k, i)
    for k in range(3, N):
        stage(f"subcomplex.{k}", hc.subcomplex.build_subcomplex, N, k, table, m)
        stage(f"basis.{k}", hc.subcomplex.homology_basis, N, k, table, cx)
    return out


# -- canonical dumps -------------------------------------------------------

def _chain(ch) -> list:
    return [ch.dim, sorted(ch.coeffs.items())]


def _cols(cols) -> list:
    return [sorted(c.items()) for c in cols]


def canonical(name: str, value) -> object:
    """A representation-independent dump of one stage output."""
    kind = name.split(".", 1)[0]
    if kind == "enumerate":
        return [value.n, [[d, list(value.faces(d))] for d in sorted(value.cells)]]
    if kind == "build_matching":
        return [[f, value.partner[f], value.rule[f]] for f in sorted(value.partner)]
    if kind == "verify_acyclic":
        return value
    if kind == "boundary":
        return [value.d, value.n_rows, value.n_cols, _cols(value.cols)]
    if kind == "morse_boundary":
        return [value.k, value.ups, value.downs, _cols(value.cols)]
    if kind == "solve":
        return _chain(value)
    if kind == "subcomplex":
        return [value.n, value.k, value.unmatched, value.external]
    if kind == "basis":
        return [value.n, value.k, value.faces, [_chain(c) for c in value.chains]]
    raise KeyError(name)


def digest(name: str, value) -> str:
    text = json.dumps(canonical(name, value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
