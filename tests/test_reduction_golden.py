"""The pairs the oracle's reduction makes, pinned: for every C_{n,k}
(3 <= k < n), the full complex and its boundary sphere at n=4..8, the
sha256 of the pair list in the order the pairs are made must equal
tests/reduction_golden.json.  Each pair is one line "d a b": the upper
cell's dimension d, the lower cell's position among the (d-1)-cells and
the upper cell's among the d-cells.

The queue order decides which pairs are made, and so what is left to the
elimination, though never a result.  After a deliberate change to the
order, re-record the file from the repository root with

    PYTHONPATH=src python tests/test_reduction_golden.py

and say in the change which lists moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from halfcube import ChainComplex, enumerate_faces
from halfcube.snf import _Reduction, check_closed
from halfcube.subcomplex import subcomplex_faces

GOLDEN = Path(__file__).with_name("reduction_golden.json")
NS = range(4, 9)


def pair_lines(red: _Reduction) -> str:
    return "".join(f"{d} {a} {b}\n"
                   for d, a, b in zip(red.dims, red.lower, red.upper))


def digests(t, cx) -> dict[str, str]:
    """sha256 of the pair list of each subset at n = t.n, by name."""
    n = t.n
    subsets = {f"C({n},{k})": subcomplex_faces(k, t) for k in range(3, n)}
    subsets["full"] = check_closed(set(t), t)
    subsets["sphere"] = check_closed({f for f in t if t.dim_of(f) < n}, t)
    return {name: hashlib.sha256(pair_lines(_Reduction(sub, cx)).encode()).hexdigest()
            for name, sub in subsets.items()}


@pytest.mark.parametrize("n", NS)
def test_pairs_equal_golden(tables, complexes, n):
    want = json.loads(GOLDEN.read_text())[str(n)]
    assert digests(tables(n), complexes(n)) == want


def record() -> None:
    """Rewrite the golden file from the current source."""
    golden = {}
    for n in NS:
        t = enumerate_faces(n)
        golden[str(n)] = digests(t, ChainComplex(t))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{sum(map(len, golden.values()))} pair lists written to {GOLDEN}")


if __name__ == "__main__":
    record()
