"""The one table of crafted inputs on which a modular route of echelon
fails, as raw rows over Q: the image mod P (the GF(P) sweep, its
reconstruction and the certificate's product check), or the rank loop mod
Q (gauche._independent, the certificate's last leg), drops rank, does not
exist, or offers an answer that does not reconstruct or that the exact
check refutes; and `rows_text`, the one writer of the CLI's matrix and
system texts.

Tier-1 takes these through tests/helpers.py, which builds its Matrix,
LinearSystem and pytest.param values from them; tests/compare_outputs.py
writes them as its edge-case files. That script's parent process has
neither compared tree on its path, so this module imports only the standard
library and holds P and Q as literals; tests/test_imports.py pins them to
echelon.gauche's primes. A new crafted input is added here, and nowhere
else."""
from __future__ import annotations

from fractions import Fraction

# the prime of the GF(P) image, echelon.gauche.P
P = 268435399
# the prime of the certificate's rank loop, echelon.gauche._CHECK.modulus
Q = 268435367


def diagonal_rows(entries, rhs=None) -> list[list]:
    """The rows of diag(entries), or with rhs the augmented rows of the
    system diag(entries) x = rhs."""
    rows = [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]
    return rows if rhs is None else [[*row, b] for row, b in zip(rows, rhs)]


def rows_text(rows, sep=" ", bar=False) -> str:
    """Rows of values or strings as the CLI reads a matrix: one line per
    row, its literals joined by sep; with bar as it reads a system, with a
    `|` before each row's last entry."""
    lines = ([*row[:-1], "|", row[-1]] if bar else row for row in rows)
    return "".join(sep.join(map(str, line)) + "\n" for line in lines)


def _crafted(name: str, p: int) -> dict[str, list[list]]:
    """The inputs on which a sweep mod the prime p, called name, fails."""
    return {
        # the leading 2x2 minor is p, zero mod p, while the pivots are 1 and 2
        f"minor-{name}": [[p, 0, 1], [0, 1, 0]],
        # p divides a denominator, so there is no image: rank 1 with pivot
        # 1, and full rank
        f"1/{name}-rank-1": [[Fraction(1, p), 1], [Fraction(2, p), 2]],
        f"1/{name}-full-rank": [[Fraction(1, p), 0], [0, 1]],
        # full rank in the first two columns, rank 1 there mod p; as a
        # system, diag(1, p) x = (1, p)
        f"drop-{name}": [[1, 0, 1], [0, p, p]],
        f"diag(1,{name})": [[1, 0], [0, p]],
        # diag(1, ..., 1, p), 16 x 16: from 16 rows the readers try the image
        f"diag-{name}": diagonal_rows([1] * 15 + [p]),
    }


# Matrices, each test naming its cases after them.
CRAFTED = {
    **_crafted("P", P),
    **_crafted("q", Q),
    # as [B | d], B x = d has a solution that the image mod P cannot give:
    # P divides the denominator of 1/P, so there is no image; 2**40/3 has no
    # reconstruction mod P; 2**43/3 reconstructs as 1083/8192, which B x = d
    # refutes
    "1/P": [[1, 0, 1], [0, 1, Fraction(1, P)]],
    "2^40/3": [[3, 0, 2**40], [0, 1, 1]],
    "2^43/3": [[3, 0, 2**43], [0, 1, 1]],
}

# Systems, as augmented rows [B | d].
SYSTEMS = {
    # the identity systems, whose solutions are all ones, and [1; 0] x = (1, 0)
    "eye": diagonal_rows([1, 1], [1, 1]),
    "eye16": diagonal_rows([1] * 16, [1] * 16),
    "column": [[1, 1], [0, 0]],
    # drop-P and drop-q read as systems, diag(1, p) x = (1, p), and drop-P
    # with d = (1, 1), whose solution (1, 1/P) has no image mod P
    "drop-P": CRAFTED["drop-P"],
    "drop-q": CRAFTED["drop-q"],
    "drop-P-moved": [[1, 0, 1], [0, P, 1]],
    # diag-P and diag-q, d their diagonal: the solution is all ones
    "diag-P-ones": diagonal_rows([1] * 15 + [P], [1] * 15 + [P]),
    "diag-q-ones": diagonal_rows([1] * 15 + [Q], [1] * 15 + [Q]),
    # the failures of diag(1,P), 1/P, 2^40/3 and 2^43/3 above, at 16 rows,
    # where the image is tried
    "zero-mod-P-16rows": diagonal_rows([1, 0] + [1] * 14, [0, P] + [0] * 14),
    "1/P-16rows": diagonal_rows([1] * 16, [1] * 15 + [Fraction(1, P)]),
    "2^40/3-16rows": diagonal_rows([3] + [1] * 15, [2**40] + [1] * 15),
    "2^43/3-16rows": diagonal_rows([3] + [1] * 15, [2**43] + [1] * 15),
}

# syseq pairs (first system, second system, the CLI's exit code, id) whose
# [B | d] fails the inclusion, and where the GF(P) image cannot prove
# [B | d] consistent: d = (0, P) is 0 mod P, so the image offers x = 0,
# which B x = d refutes, and [B | d] is inconsistent; and the three
# solutions of CRAFTED above. Each comes as a 2-row pair, below the image's
# gate, and as a 16-row one against the identity system.
FALLBACKS = [
    (SYSTEMS["column"], CRAFTED["diag(1,P)"], 2, "zero-mod-P"),
    *((SYSTEMS["eye"], CRAFTED[name], 1, name) for name in ("1/P", "2^40/3", "2^43/3")),
    *(
        (SYSTEMS["eye16"], SYSTEMS[f"{name}-16rows"], code, f"{name}-16rows")
        for name, code in (("zero-mod-P", 2), ("1/P", 1), ("2^40/3", 1), ("2^43/3", 1))
    ),
]
