"""Seeded input files for the parts of one workload.

    python3 bench/inputs.py PART[,PART...] SEED DIR

Builds the games of each PART for SEED, writes them under DIR with the
library's own writers, loads every file back and writes ``manifest.json``,
which lists the pool of questions run.py plays: the parts' questions, one
part after the other.  run.py starts this script in fresh interpreters
several times and reports the median wall time as ``setup_s``.

A run answers every question of the pool once per pass, for a fixed number
of passes, and keeps each question's fastest answer (see run.py).  Each part
has ten or more fast questions, eight or more of a middle type and twelve of
its slowest type, so that a workload's median and tail fall on game types of
which there are several.

Only ``classical-enum`` draws fresh random games per seed: enumeration cost
depends on the sizes alone.  The other parts answer fixed base games (built
from ``LADDER_SEED``), relabelled per seed by permuting questions and
flipping answers.  Solver sweep counts are a property of the game: they vary
by about 1% under relabelling but from 84 to 6,952 across random games of
the sizes used here, so fresh random games would make every timing depend
more on the seed than on the code.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from tightbell import game, nlc

LADDER_SEED = 1908_06669

# (m_a, m_b): smaller side 12-16, both orientations, so the transposed path
# runs.  Times are a question's fastest answer on the 2-vCPU Xeon this was
# tuned on.  Fast: ten games of 4-31 ms; middle: 15x15 (about 40 ms);
# slowest: 16x17 and 17x16 (about 80 ms).
CLASSICAL_POOL = (
    [(12, 12), (12, 20), (20, 12), (13, 13), (13, 20), (20, 13), (14, 14), (14, 18),
     (18, 14), (24, 12)]
    + [(15, 15)] * 8 + [(16, 17), (17, 16)] * 6
)
# (LADDER_SEED index, (m_a, m_b)): small side 6-10, large side 16-28, both
# orientations.  Each base game is drawn from LADDER_SEED and its index, which
# fixes its sweep count.  Fast: ten games of 84-160 sweeps (14-32 ms);
# middle: 24x6 (180 sweeps) and 28x7 (131 sweeps), four times each (30-35
# ms); slowest: four games of 243-362 sweeps (about 55 ms), three times each.
# Games of these sizes needing thousands of sweeps (a 6x24 took 2.8 s) are
# left out.
QUANTUM_POOL = (
    [(223, (16, 8)), (230, (18, 9)), (205, (6, 18)), (236, (10, 20)), (229, (9, 18)),
     (239, (20, 10)), (226, (24, 8)), (215, (21, 7)), (234, (27, 9)), (207, (18, 6))]
    + [(211, (24, 6)), (219, (28, 7))] * 4
    + [(218, (28, 7)), (228, (9, 18)), (212, (7, 21)), (214, (21, 7))] * 3
)
# Fast: CHSH, appendix_d n=3, identity-like m=6 and m=7, and identity-like
# m=5 padded with a never-asked question on each side (under 30 ms); middle:
# identity-like m=6 padded the same way (about 60 ms); slowest: identity-like
# m=8 (about 75 ms, 256 vertices).  Entries: (family, params).
FACE_POOL = (
    [("chsh",)] * 3 + [("appendix_d", 3)] * 2 + [("identity", 6)] + [("identity", 7)] * 2
    + [("padded", 5, 1, 1)] * 2
    + [("padded", 6, 1, 1)] * 8 + [("identity", 8)] * 12
)
# shared-input specs: n=3 and n=4 get every command, n=5 only the spectrum
# (its 32x32 game is past the default enumeration cap): 27 questions.  n=3
# spectrum and bound take 3-6 ms; n=3 bias and face, n=4 spectrum and g0 6-9
# ms; n=5 spectrum and n=4 bound 20-50 ms; n=4 bias and face 65-170 ms.
NLC_SPECS = [3, 3, 3, 4, 4, 4, 5, 5]


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def weighted(rng, m_a: int, m_b: int, max_weight: int = 1000):
    """Exhaustive random game as (q, f): positive integer weights over their sum."""
    w = rng.integers(1, max_weight + 1, size=(m_a, m_b))
    total = int(w.sum())
    q = [[Fraction(int(v), total) for v in row] for row in w]
    f = [[int(b) for b in row] for row in rng.integers(0, 2, size=(m_a, m_b))]
    return q, f


def relabel(rng, q, f):
    """Permute both players' questions and flip answers: an equivalent game."""
    m_a, m_b = len(q), len(q[0])
    pa, pb = rng.permutation(m_a), rng.permutation(m_b)
    fa, fb = rng.integers(0, 2, m_a), rng.integers(0, 2, m_b)
    q2 = [[q[pa[x]][pb[y]] for y in range(m_b)] for x in range(m_a)]
    f2 = [[f[pa[x]][pb[y]] ^ int(fa[x]) ^ int(fb[y]) for y in range(m_b)]
          for x in range(m_a)]
    return q2, f2


def transpose(q, f):
    return [list(col) for col in zip(*q)], [list(col) for col in zip(*f)]


def identity_like(m: int, rows: int = 0, cols: int = 0):
    """Uniform prior on the diagonal of an m x m block, padded with zero rows/cols."""
    w = Fraction(1, m)
    q = [[w if x == y < m else Fraction(0) for y in range(m + cols)] for x in range(m + rows)]
    f = [[0] * (m + cols) for _ in range(m + rows)]
    return q, f


def face_base(entry):
    kind = entry[0]
    if kind in ("chsh", "appendix_d"):
        g = game.make_named(*entry)
        return [list(r) for r in g.q], [list(r) for r in g.f]
    if kind == "identity":
        return identity_like(entry[1])
    return identity_like(entry[1], entry[2], entry[3])


def gf2_invertible(rng, n: int) -> list[int]:
    """Columns (as bit masks) of a random invertible n x n matrix over GF(2)."""
    while True:
        cols = [int(v) for v in rng.integers(1, 1 << n, size=n)]
        basis: list[int] = []
        for c in cols:
            for b in basis:
                c = min(c, c ^ b)
            if c == 0:
                break
            basis.append(c)
        else:
            return cols


def random_spec(rng, n: int, max_weight: int = 8):
    """Shared-input spec (q~, f) with zero weights allowed and nonempty support."""
    size = 1 << n
    w = rng.integers(0, max_weight + 1, size=size)
    if w.sum() == 0:
        w[int(rng.integers(0, size))] = 1
    total = int(w.sum())
    return [Fraction(int(v), total) for v in w], [int(b) for b in rng.integers(0, 2, size=size)]


def relabel_spec(rng, n: int, q_tilde, f_z):
    """z -> A z + c with A invertible, answers flipped by u.z + e: an equivalent game."""
    cols = gf2_invertible(rng, n)
    c, u, e = (int(v) for v in rng.integers(0, 1 << n, size=3))
    e &= 1
    out_q, out_f = [], []
    for z in range(1 << n):
        az = c
        for j in range(n):
            if z >> j & 1:
                az ^= cols[j]
        out_q.append(q_tilde[az])
        out_f.append(f_z[az] ^ (bin(u & z).count("1") & 1) ^ e)
    return out_q, out_f


def build_part(part: str, seed: int, out: Path) -> list[dict]:
    """Write the part's files under ``out``; return its manifest items."""

    def write_game(name: str, q, f) -> str:
        game.save_game(game.build_game(q, f), out / name)
        return name

    if part == "classical-enum":
        rng = rng_for(seed, 1)
        return [{"game": write_game(f"c{i}.json", *weighted(rng, m_a, m_b)),
                 "label": f"{m_a}x{m_b}"}
                for i, (m_a, m_b) in enumerate(CLASSICAL_POOL)]
    if part == "quantum-cert":
        rng = rng_for(seed, 2)
        return [{"game": write_game(f"q{k}.json",
                                    *relabel(rng, *weighted(rng_for(LADDER_SEED, 2, i), *size))),
                 "label": "{}x{}-{}".format(*size, i)}
                for k, (i, size) in enumerate(QUANTUM_POOL)]
    if part == "face-ties":
        rng = rng_for(seed, 3)
        items = []
        for i, entry in enumerate(FACE_POOL):
            q, f = relabel(rng, *face_base(entry))
            if rng.integers(0, 2):
                q, f = transpose(q, f)
            items.append({"game": write_game(f"f{i}.json", q, f),
                          "label": "-".join(map(str, entry)),
                          "family": entry[0], "params": list(entry[1:])})
        return items
    if part == "nlc-cli":
        rng = rng_for(seed, 4)
        items = []
        for i, n in enumerate(NLC_SPECS):
            q_tilde, f_z = relabel_spec(rng, n, *random_spec(rng_for(LADDER_SEED, 4, i), n))
            spec = nlc.NlcSpec(n=n, q_tilde=tuple(q_tilde), f_z=tuple(f_z))
            spec_file = f"s{i}.json"
            nlc.save_nlc_spec(spec, out / spec_file)
            items.append({"command": "spectrum", "spec": spec_file, "n": n,
                          "label": f"spectrum-n{n}"})
            if n <= 4:
                game_file = f"g{i}.json"
                game.save_game(nlc.build_nlc(spec), out / game_file)
                items += [{"command": cmd, "spec": spec_file, "game": game_file, "n": n,
                           "label": f"{cmd}-n{n}"} for cmd in ("bound", "bias", "face")]
        items.append({"command": "g0", "n": 3, "label": "g0-n3"})
        return items
    raise ValueError(f"unknown part {part!r}")


def check_round_trip(pool, out: Path) -> None:
    """Load every written file back; a file that does not load is a set-up failure."""
    games = {item["game"] for item in pool if "game" in item}
    specs = {item["spec"] for item in pool if "spec" in item}
    for name in sorted(games):
        game.load_game(out / name)
    for name in sorted(specs):
        nlc.load_nlc_spec(out / name)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    parts, seed, out = argv[0].split(","), int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    pool = [{**item, "part": part} for part in parts for item in build_part(part, seed, out)]
    check_round_trip(pool, out)
    (out / "manifest.json").write_text(json.dumps({"parts": parts, "seed": seed,
                                                   "pool": pool}), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
