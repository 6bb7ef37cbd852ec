"""Seeded corpora of echelon CLI jobs, one corpus per workload.

`build(workload, seed, workdir)` writes plain matrix and system files under
`workdir/in/` and returns the jobs that run on them. The same workload and
seed always give the same files and the same job order. Every job carries
what its construction fixes: the exit code, and where the input was built
from a known reduced form, its rank, pivots and verdict.

Structured inputs are built from a random reduced row echelon form E and a
random unit-triangular product V (determinant 1, so invertible over Q and
every GF(p)): A = V * [E; 0] has rank r and RREF [E; 0] by construction.
Equivalent pairs multiply by a second such product; non-equivalent pairs
move the particular solution off the null space or change one free entry
of E, which changes the null space.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

P = 32003

@dataclass
class Job:
    cls: str                 # class label, e.g. "rref gf32003 80x81 dense"
    cmd: str                 # echelon subcommand
    modulus: int | None      # None for Q
    paths: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        flag = "q" if self.modulus is None else f"gf:{self.modulus}"
        return [self.cmd, "--field", flag, *self.paths]


def _lit(x, p: int | None) -> str:
    if p is not None:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Inputs:
    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.dir = os.path.join(workdir, "in")
        os.makedirs(self.dir, exist_ok=True)
        self.count = 0

    # ---- files -------------------------------------------------------------

    def write(self, rows, p, rhs=None) -> str:
        path = os.path.join(self.dir, f"{self.count}.txt")
        self.count += 1
        lines = []
        for i, row in enumerate(rows):
            line = " ".join(_lit(x, p) for x in row)
            if rhs is not None:
                line += " | " + _lit(rhs[i], p)
            lines.append(line)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    # ---- entries -----------------------------------------------------------

    def entry(self, kind: str, p: int | None):
        rng = self.rng
        if kind == "gf":
            return rng.randrange(p)
        if kind == "small":
            return rng.randint(-5, 5)
        if kind == "frac":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if kind == "big":
            return rng.randint(-(2**63), 2**63 - 1)
        raise ValueError(kind)

    def dense(self, rows: int, cols: int, kind: str, p, rank: int | None = None):
        if rank is None:
            return [[self.entry(kind, p) for _ in range(cols)] for _ in range(rows)]
        b = self.dense(rows, rank, kind, p)
        c = self.dense(rank, cols, kind, p)
        return _mul(b, c, p)

    # ---- structured inputs -------------------------------------------------

    def reduced(self, rank: int, cols: int, kind: str, p):
        """A random r x cols RREF, its pivots (0-based) and one free column
        to the right of the first pivot (for changing the null space)."""
        rng = self.rng
        while True:
            pivots = sorted(rng.sample(range(cols), rank))
            free = [j for j in range(cols) if j not in set(pivots)]
            right = [j for j in free if j > pivots[0]]
            if right:
                break
        pivset = set(pivots)
        e = []
        for i, pc in enumerate(pivots):
            row = [0] * cols
            row[pc] = 1
            for j in range(pc + 1, cols):
                if j not in pivset:
                    row[j] = self.entry(kind, p)
            e.append(row)
        return e, pivots, rng.choice(right)

    def unimodular(self, n: int, p):
        """V = L * U, unit lower times unit upper, entries of both in -1..1."""
        rng = self.rng
        lo = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
        up = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
        return _mul(lo, up, p)

    def spread(self, v, e, p):
        """v[:, :len(e)] * e: the matrix whose rows mix the rows of e."""
        return _mul([row[: len(e)] for row in v], e, p)


def _mul(a, b, p):
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append([z % p for z in acc] if p is not None else acc)
    return out


def _matvec(a, x, p):
    out = [sum(r * v for r, v in zip(row, x)) for row in a]
    return [z % p for z in out] if p is not None else out


def _integral(rows, rhs=None):
    """Scale each row (with its right-hand side) to integers: a legal row
    operation, so rank, RREF, null space and solutions are unchanged."""
    out_rows, out_rhs = [], []
    for i, row in enumerate(rows):
        vals = list(row) + ([rhs[i]] if rhs is not None else [])
        scale = 1
        for x in vals:
            d = Fraction(x).denominator
            scale = scale * d // math.gcd(scale, d)
        vals = [int(Fraction(x) * scale) for x in vals]
        out_rows.append(vals[: len(row)])
        if rhs is not None:
            out_rhs.append(vals[-1])
    return out_rows, (out_rhs if rhs is not None else None)


# ---- workloads -------------------------------------------------------------


def _gf_dense(b: _Inputs) -> list[Job]:
    jobs = []

    def add(count, cmd, n, p, deficient=0):
        for k in range(count):
            # a narrow rank range, so that a job costs about the same on every seed
            rank = n - 1 - b.rng.randrange(3) if k < deficient else None
            rows = b.dense(n, n + 1, "gf", p, rank)
            tag = "lowrank" if rank is not None else "dense"
            jobs.append(Job(f"{cmd} gf{p} {n}x{n + 1} {tag}", cmd, p, [b.write(rows, p)]))

    for cmd in ("rref", "pivots", "basis", "script"):
        add(12, cmd, 20, P, deficient=3)
        add(8, cmd, 20, 2)
        add(3, cmd, 40, P, deficient=1)
        add(1, cmd, 40, 2)
    add(1, "rref", 80, P)
    # GF systems so the systems and nullspace layers are exercised
    for _ in range(4):
        jobs.append(_system_job(b, 20, 15, "gf", P, consistent=True))
    return jobs


def _q_dense(b: _Inputs) -> list[Job]:
    jobs = []

    def add(cmd, n, kind):
        rows = b.dense(n, n + 1, kind, None)
        jobs.append(Job(f"{cmd} q-{kind} {n}x{n + 1}", cmd, None, [b.write(rows, None)]))

    # p50 falls inside the n = 10 block and p90 inside the n = 20 small and
    # a/b block, not on a jump between job classes
    for n, reps in ((10, {"small": 9, "frac": 9, "big": 9}), (20, {"small": 3, "frac": 3, "big": 1})):
        for kind, count in reps.items():
            for _ in range(count):
                for cmd in ("rref", "pivots", "script"):
                    add(cmd, n, kind)
    # no 64-bit job at n = 40: one job of seconds of big-integer arithmetic
    # outlasts the calibration that normalizes it, and swung jobs_per_s by 12%
    add("rref", 40, "small")
    # small systems so the systems and nullspace layers are exercised
    for _ in range(2):
        jobs.append(_system_job(b, 10, 8, "small", None, consistent=True))
    return jobs


def _system_job(b: _Inputs, n: int, rank: int, kind: str, p, consistent: bool,
                cols: int | None = None) -> Job:
    cols = n if cols is None else cols
    e, pivots, _ = b.reduced(rank, cols, kind, p)
    v = b.unimodular(n, p)
    a = b.spread(v, e, p)
    x0 = [b.entry("small", None) for _ in range(cols)]
    rhs = _matvec(a, x0, p)
    if not consistent:
        # add a multiple of V e_{r+1}, which lies outside V * span(e_1..e_r)
        rhs = [z + 3 * row[rank] for z, row in zip(rhs, v)]
        rhs = [z % p for z in rhs] if p is not None else rhs
    if p is None:
        a, rhs = _integral(a, rhs)
    tag = "consistent" if consistent else "inconsistent"
    return Job(
        f"solve {_fname(p)} {n}x{cols} rank{rank} {tag}", "solve", p, [b.write(a, p, rhs)],
        {"code": 0 if consistent else 1, "pivots": [c + 1 for c in pivots]},
    )


def _fname(p):
    return "q" if p is None else f"gf{p}"


def _q_systems(b: _Inputs) -> list[Job]:
    jobs = []

    def pair(n, rank, two_systems: bool, variant: str):
        """variant: 'eq', 'moved' (particular off the null space) or
        'nullspace' (one free entry of E changed)."""
        e, pivots, free_col = b.reduced(rank, n, "frac", None)
        v = b.unimodular(n, None)
        w = b.unimodular(n, None)
        a = b.spread(v, e, None)
        x0 = [b.entry("small", None) for _ in range(n)]
        if variant == "nullspace":
            e2 = [row[:] for row in e]
            e2[0][free_col] += 1
            a2 = _mul(w, b.spread(v, e2, None), None)
        else:
            a2 = _mul(w, a, None)
        x2 = list(x0)
        if variant == "moved":
            x2[pivots[0]] += 1  # A e_pivot = V e_1 is nonzero
        if two_systems:
            a1, r1 = _integral(a, _matvec(a, x0, None))
            a2i, r2 = _integral(a2, _matvec(a2, x2, None))
            paths = [b.write(a1, None, r1), b.write(a2i, None, r2)]
            cmd = "syseq"
        else:
            paths = [b.write(_integral(a)[0], None), b.write(_integral(a2)[0], None)]
            cmd = "equiv"
        same = variant == "eq"
        return Job(f"{cmd} q {n}x{n} rank{rank} {variant}", cmd, None, paths,
                   {"code": 0 if same else 1, "verdict": same})

    def single(cmd, n, rank):
        e, pivots, _ = b.reduced(rank, n, "frac", None)
        a = _integral(b.spread(b.unimodular(n, None), e, None))[0]
        return Job(f"{cmd} q {n}x{n} rank{rank}", cmd, None, [b.write(a, None)],
                   {"code": 0, "pivots": [c + 1 for c in pivots]})

    def full_mix(n, rank, equiv=True):
        return [
            _system_job(b, n, rank, "frac", None, consistent=True),
            _system_job(b, n, rank, "frac", None, consistent=False),
            pair(n, rank, True, "eq"),
            pair(n, rank, True, "moved"),
            pair(n, rank, True, "nullspace"),
            *([pair(n, rank, False, "eq"), pair(n, rank, False, "nullspace")] if equiv else []),
            single("null", n, rank),
            single("graph", n, rank),
        ]

    # p50 falls inside the n = 10 syseq block and p90 mid-way through the
    # n = 20 syseq block, not on a jump between job classes; so the n = 30
    # set has no equiv jobs
    for n, reps in ((10, 7), (20, 3), (30, 1)):
        for _ in range(reps):
            jobs += full_mix(n, round(0.75 * n), equiv=n < 30)
    # RREF checks and a script so the rowops layer is exercised
    for plant in ("valid", "Pivots", "Insecurity"):
        jobs.append(_check_job(b, 10, 10, 8, "frac", None, plant))
    jobs.append(_script_job(b, 10, "frac"))
    return jobs


def _script_job(b: _Inputs, n: int, kind: str) -> Job:
    """A Q `script` on a dense n x (n+1) input, so that gauss_jordan runs."""
    rows = b.dense(n, n + 1, kind, None)
    return Job(f"script q-{kind} {n}x{n + 1}", "script", None, [b.write(rows, None)])


def _check_job(b: _Inputs, rows: int, cols: int, rank: int, kind: str, p, plant: str) -> Job:
    """[E; 0] in RREF, or with one planted violation that is the first in
    the order Pivots, Insecurity, Downright, Bottom-zeros."""
    e, _, _ = b.reduced(rank, cols, kind, p)
    m = [row[:] for row in e] + [[0] * cols for _ in range(rows - rank)]
    if plant == "Pivots":
        m[rank - 1] = [2 * x for x in m[rank - 1]]
    elif plant == "Insecurity":
        m[0] = [x + 3 * y for x, y in zip(m[0], m[1])]
    elif plant == "Downright":
        m[0], m[1] = m[1], m[0]
    elif plant == "Bottom-zeros":
        m.insert(0, m.pop())
    verdict = None if plant == "valid" else plant
    return Job(f"check {_fname(p)} {rows}x{cols} rank{rank} {plant}", "check", p,
               [b.write(m, p)], {"code": 0 if verdict is None else 1, "violation": verdict})


def _wide_lowrank(b: _Inputs) -> list[Job]:
    jobs = []

    def single(cmd, rows, cols, rank, p):
        kind = "gf" if p is not None else "frac"
        e, pivots, _ = b.reduced(rank, cols, kind, p)
        a = b.spread(b.unimodular(rows, p), e, p)
        return Job(f"{cmd} {_fname(p)} {rows}x{cols} rank{rank}", cmd, p, [b.write(a, p)],
                   {"code": 0, "pivots": [c + 1 for c in pivots]})

    for rows, reps in ((40, 1), (20, 4), (10, 8)):
        cols = 10 * rows
        for _ in range(reps):
            for p in (P, None):
                for cmd in ("null", "graph", "pivots"):
                    jobs.append(single(cmd, rows, cols, b.rng.randint(2, 4), p))
        for plant in ("valid", "Pivots", "Insecurity", "Downright", "Bottom-zeros"):
            for _ in range(1 if rows == 40 else 2):
                jobs.append(_check_job(b, rows, cols, b.rng.randint(2, 4), "frac", None, plant))
    # one wide system and one script so the systems and rowops layers are
    # exercised
    jobs.append(_system_job(b, 20, 3, "frac", None, consistent=True, cols=200))
    jobs.append(_script_job(b, 10, "frac"))
    return jobs


WORKLOADS = {
    "gf-dense": _gf_dense,
    "q-dense": _q_dense,
    "q-systems": _q_systems,
    "wide-lowrank": _wide_lowrank,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's jobs for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](_Inputs(rng, workdir))
    rng.shuffle(jobs)
    return jobs


def smallest(jobs: list[Job]) -> Job:
    """The job with the smallest input, used to warm up the worker."""
    return min(jobs, key=lambda j: sum(os.path.getsize(p) for p in j.paths))
