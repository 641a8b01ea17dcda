import importlib.util
import random
import sys
from pathlib import Path

import pytest

from kirby import intmat


def random_unimodular(n: int, rng: random.Random, steps: int = 12):
    """Random product of elementary integer row operations (det = +-1),
    with its exact inverse."""
    m = intmat.identity(n)
    inv = intmat.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1 or rng.random() < 0.2:
            # negate a row: self-inverse
            m[i] = [-x for x in m[i]]
            inv_col = [row[i] for row in inv]
            for r, v in zip(inv, inv_col):
                r[i] = -v
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row i += c * row j  on m; the inverse gets col j -= c * col i
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    return m, inv


def bench_workloads():
    """The benchmark's input generators (bench/workloads.py, stdlib only)."""
    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"]


def random_symmetric(n: int, rng: random.Random, lo: int = -3, hi: int = 3):
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = rng.randint(lo, hi)
    return q


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
