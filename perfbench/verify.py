"""Independent checker for echelon CLI outputs.

Imports nothing from echelon. Inputs and outputs are parsed from their text
form into ints and Fractions over Q, or residues mod p over GF(p).
`check(job, code, out, err)` returns None when the output is right, or a
one-line reason when it is not.

- `rref` outputs are certified without trusting any elimination route: R is
  in RREF, M = M_P * R where M_P are the pivot columns of M, and M_P has
  full column rank (tested mod a large prime, confirmed exactly if that
  fails).
- `script` outputs are replayed on M, and the result must pass the same
  certificate.
- `pivots`, `basis`, `null`, `graph` and `solve` are checked against this
  module's own fraction-free reduction and, where the input was built from a
  known reduced form, against its construction. Null-space and homogeneous
  vectors must satisfy M v = 0, number cols - rank, and be graph-normalized.
- Verdicts (`check`, `equiv`, `syseq`, inconsistent `solve`) and exit codes
  must match construction.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

# 2**61 - 1 is prime; a full-rank test mod this prime implies full rank over Q
_CERT_PRIME = 2**61 - 1


class Reject(Exception):
    pass


# ---- parsing ---------------------------------------------------------------


def scalar(tok: str, p: int | None):
    """An int or Fraction over Q (ints mix exactly with Fractions), a
    residue over GF(p)."""
    num, slash, den = tok.partition("/")
    if p is None:
        return Fraction(int(num), int(den)) if slash else int(num)
    if slash:
        return int(num) * pow(int(den), -1, p) % p
    return int(num) % p


def parse_matrix(text: str, p):
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append([scalar(t, p) for t in line.split()])
    return rows


def parse_system(text: str, p):
    rows, rhs = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            left, right = line.split("|")
            rows.append([scalar(t, p) for t in left.split()])
            rhs.append(scalar(right.strip(), p))
    return rows, rhs


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _vector(line: str, p, cols: int):
    v = [scalar(t, p) for t in line.split()]
    if len(v) != cols:
        raise Reject(f"vector of {len(v)} entries, expected {cols}")
    return v


# ---- arithmetic ------------------------------------------------------------


def _int_rows(rows):
    """Each row of Fractions scaled to integers by its denominators' lcm."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def reduce(rows, p):
    """(RREF, pivots 0-based). Over Q: fraction-free Gauss-Jordan on integer
    rows with exact division by the previous pivot (Bareiss), divided out at
    the end. Over GF(p): Gauss-Jordan on residues."""
    work = _int_rows(rows) if p is None else [list(r) for r in rows]
    m, n = len(work), len(work[0])
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pick = next((i for i in range(r, m) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        prow = work[r]
        pv = prow[c]
        if p is not None:
            inv = pow(pv, -1, p)
            prow = work[r] = [x * inv % p for x in prow]
        for i in range(m):
            a = work[i][c]
            if i == r:
                continue
            if p is not None:
                if a:
                    work[i] = [(x - a * y) % p for x, y in zip(work[i], prow)]
            elif a or prev != pv:
                work[i] = [(pv * x - a * y) // prev for x, y in zip(work[i], prow)]
        if p is None:
            prev = pv
        pivots.append(c)
    if p is None:
        # every pivot row now carries the last pivot value `prev`
        work = [[Fraction(x, prev) for x in row] for row in work]
    return work, pivots


def rank(rows, p) -> int:
    return len(reduce(rows, p)[1]) if rows and rows[0] else 0


def violation(rows) -> str | None:
    """First violated RREF condition, checked in the order Pivots,
    Insecurity, Downright, Bottom-zeros, or None."""
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    for row, lead in zip(rows, leads):
        if lead is not None and row[lead] != 1:
            return "Pivots"
    for i, lead in enumerate(leads):
        if lead is not None and any(rows[k][lead] for k in range(len(rows)) if k != i):
            return "Insecurity"
    placed = [lead for lead in leads if lead is not None]
    if placed != sorted(placed):
        return "Downright"
    seen_zero = False
    for lead in leads:
        if lead is None:
            seen_zero = True
        elif seen_zero:
            return "Bottom-zeros"
    return None


def _apply(rows, v, p):
    """M v, skipping the zero entries of v."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = [sum(row[j] * x for j, x in nz) for row in rows]
    return [z % p for z in out] if p is not None else out


def certify(m, r, p) -> None:
    """Raise Reject unless r is the RREF of m."""
    if len(r) != len(m) or any(len(row) != len(m[0]) for row in r):
        raise Reject("reduced form has the wrong shape")
    bad = violation(r)
    if bad is not None:
        raise Reject(f"reduced form violates {bad}")
    pivots = [next(j for j, x in enumerate(row) if x) for row in r if any(row)]
    k = len(pivots)
    cols = len(m[0])
    if p is None:
        mi = _int_rows(m)
        for j in range(cols):
            col = [r[i][j] for i in range(k)]
            d = lcm(*(x.denominator for x in col)) if col else 1
            ci = [x.numerator * (d // x.denominator) for x in col]
            for row in mi:
                if sum(row[pc] * c for pc, c in zip(pivots, ci)) != row[j] * d:
                    raise Reject(f"M != M_P * R in column {j + 1}")
    else:
        for j in range(cols):
            col = [r[i][j] for i in range(k)]
            for row in m:
                if (sum(row[pc] * c for pc, c in zip(pivots, col)) - row[j]) % p:
                    raise Reject(f"M != M_P * R in column {j + 1}")
    mp = [[row[pc] for pc in pivots] for row in m]
    if k:
        if p is None:
            modq = [[x % _CERT_PRIME for x in row] for row in _int_rows(mp)]
            full = rank(modq, _CERT_PRIME) == k or rank(mp, None) == k
        else:
            full = rank(mp, p) == k
        if not full:
            raise Reject("pivot columns of M are not independent")


# ---- per-subcommand checks -------------------------------------------------


def _expected_pivots(job, m, p):
    _, pivots = reduce(m, p)
    built = job.expect.get("pivots")
    if built is not None and [c + 1 for c in pivots] != built:
        raise Reject("own reduction disagrees with construction")
    return pivots


def _check_null_vectors(m, vectors, pivots, p):
    cols = len(m[0])
    free = [j for j in range(cols) if j not in set(pivots)]
    if len(vectors) != len(free):
        raise Reject(f"{len(vectors)} null vectors, expected cols - rank = {len(free)}")
    if p is None:
        m = _int_rows(m)  # row scaling keeps the null space; ints are faster
    for f, v in zip(free, vectors):
        for g in free:
            if v[g] != (1 if g == f else 0):
                raise Reject(f"vector for free column {f + 1} is not graph-normalized")
        if any(_apply(m, v if p is not None else _int_rows([v])[0], p)):
            raise Reject(f"M v != 0 for free column {f + 1}")


def _rref(job, m, p, out):
    certify(m, parse_matrix(out, p), p)


def _pivots(job, m, p, out):
    got = [int(t) for t in out.split()]
    if got != [c + 1 for c in _expected_pivots(job, m, p)]:
        raise Reject("wrong pivot set")


def _basis(job, m, p, out):
    pivots = _expected_pivots(job, m, p)
    got = [_vector(line, p, len(m)) for line in out.splitlines()]
    if got != [[row[c] for row in m] for c in pivots]:
        raise Reject("basis columns are not the pivot columns of the input")


def _null(job, m, p, out):
    pivots = _expected_pivots(job, m, p)
    vectors = [_vector(line, p, len(m[0])) for line in out.splitlines()]
    _check_null_vectors(m, vectors, pivots, p)


def _graph(job, m, p, out):
    pivots = _expected_pivots(job, m, p)
    cols = len(m[0])
    free = [j for j in range(cols) if j not in set(pivots)]
    lines = out.splitlines()
    if len(lines) != len(pivots):
        raise Reject(f"{len(lines)} relations for {len(pivots)} pivots")
    vectors = [[0] * cols for _ in free]
    for k, f in enumerate(free):
        vectors[k][f] = 1
    for line, pc in zip(lines, pivots):
        lhs, rhs = line.split(" = ")
        if lhs != f"x{pc + 1}":
            raise Reject(f"relation for {lhs}, expected x{pc + 1}")
        terms = [] if rhs == "0" and not free else rhs.split(" + ")
        if len(terms) != len(free):
            raise Reject(f"{lhs} lists {len(terms)} free variables, expected {len(free)}")
        for k, (term, f) in enumerate(zip(terms, free)):
            coeff, var = term.split("*")
            if var != f"x{f + 1}":
                raise Reject(f"{lhs}: term {var}, expected x{f + 1}")
            vectors[k][pc] = scalar(coeff, p)
    _check_null_vectors(m, vectors, pivots, p)


def _check(job, m, p, out):
    got = out.strip()
    bad = violation(m)
    if bad != job.expect["violation"]:
        raise Reject(f"own check finds {bad}, construction planted {job.expect['violation']}")
    want = "RREF" if bad is None else f"NOT RREF: {bad}"
    if got != want:
        raise Reject(f"printed {got!r}, expected {want!r}")


def _script(job, m, p, out):
    work = [list(row) for row in m]
    n = len(work)
    for line in out.splitlines():
        parts = line.split()
        op = parts[0] if parts else ""
        if (op, len(parts)) not in (("swap", 3), ("scale", 3), ("axpy", 4)):
            raise Reject(f"unknown op {line!r}")
        try:
            i = int(parts[1]) - 1
            j = i if op == "scale" else int(parts[2]) - 1
            c = None if op == "swap" else scalar(parts[-1], p)
        except (ValueError, ZeroDivisionError) as exc:
            raise Reject(f"bad op {line!r}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n) or (i == j) != (op == "scale") or (op == "scale" and not c):
            raise Reject(f"op {line!r} is not an invertible row operation")
        if op == "swap":
            work[i], work[j] = work[j], work[i]
        elif op == "scale":
            work[i] = [c * x for x in work[i]]
        else:
            work[i] = [x - c * y for x, y in zip(work[i], work[j])]
        if p is not None:
            work[i] = [x % p for x in work[i]]
    certify(m, work, p)


def _solve(job, system, p, out):
    a, b = system
    pivots = _expected_pivots(job, a, p)
    lines = out.splitlines()
    if not job.expect["code"]:
        if not lines or not lines[0].startswith("particular: "):
            raise Reject("no particular solution printed")
        x = _vector(lines[0][len("particular: "):], p, len(a[0]))
        ax = _apply(a, x, p)
        if ax != b:
            raise Reject("A x != b for the particular solution")
        if any(x[j] for j in range(len(x)) if j not in set(pivots)):
            raise Reject("particular solution is not zero at the free columns")
        vectors = []
        for line in lines[1:]:
            if not line.startswith("homogeneous: "):
                raise Reject(f"unexpected line {line[:40]!r}")
            vectors.append(_vector(line[len("homogeneous: "):], p, len(a[0])))
        _check_null_vectors(a, vectors, pivots, p)
    elif out.strip() != "INCONSISTENT":
        raise Reject("inconsistent system not reported as INCONSISTENT")


_VERDICTS = {
    "equiv": ("ROW-EQUIVALENT", "NOT ROW-EQUIVALENT"),
    "syseq": ("SOLUTION-EQUIVALENT", "NOT SOLUTION-EQUIVALENT"),
}

_ONE_MATRIX = {
    "rref": _rref, "pivots": _pivots, "basis": _basis, "null": _null,
    "graph": _graph, "check": _check, "script": _script,
}


def check(job, code, out: str, err: str) -> str | None:
    """None when the job's result is right, else the reason it is not."""
    if code != job.expect.get("code", 0):
        return f"exit code {code!r}, expected {job.expect.get('code', 0)}"
    if err:
        return f"unexpected stderr: {err.strip()[:80]}"
    p = job.modulus
    try:
        if job.cmd in _VERDICTS:
            yes, no = _VERDICTS[job.cmd]
            want = yes if job.expect["verdict"] else no
            if out.strip() != want:
                return f"printed {out.strip()[:40]!r}, expected {want!r}"
        elif job.cmd == "solve":
            _solve(job, parse_system(_read(job.paths[0]), p), p, out)
        else:
            _ONE_MATRIX[job.cmd](job, parse_matrix(_read(job.paths[0]), p), p, out)
    except Reject as exc:
        return str(exc)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc!r}"
    return None
