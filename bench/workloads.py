"""Seeded command lists for the benchmark workloads.

Each workload is a list of ``braidsurgery`` argv lists, built from two of
the command groups below.  The seed picks
the braids and permutes continued-fraction chains, so it changes the
inputs but not their sizes: matrix dimensions, tuple counts, diagram
counts and word lengths are fixed per workload.  Every generated
command succeeds at the commit that defined the benchmark.

Why each workload exists, and which layer it is meant to load, is
written up in ``README.md`` next to this file.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Closures that are knots and satisfy the charged crossing condition, so
# ``theta`` and ``enumerate`` accept them.  For a knot the linking
# matrix does not depend on the braid, so swapping one for another
# changes the output (braid echo, front statistics) but not the work.
KNOTS = (
    "B2 s1^5",
    "B2 s1^7",
    "B2 s1^9",
    "B3 s1^3 s2^3",
    "B3 s1^5 s2^3",
    "B3 s1^3 s2^5",
    "B4 s1^3 s2^3 s3^3",
)

# Two-component closures with linking number -1 between the components.
LINKS = (
    "B4 s1^5 s3^5 s2^-2",
    "B4 s1^7 s3^5 s2^-2",
    "B4 s1^5 s3^7 s2^-2",
    "B4 s1^7 s3^7 s2^-2",
    "B4 s3^5 s1^5 s2^-2",
)


def chain_slope(coeffs) -> Fraction:
    """The slope in (0, 1) whose slam-dunk chain has these framings.

    The expansion writes ``p/q`` as the chain of ``-q/p``, so this
    inverts ``a_0 - 1/(a_1 - 1/(...))``; every ``a_i <= -2``.
    """
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - 1 / value
    return -1 / value


def slope_text(whole: int, coeffs) -> str:
    frac = chain_slope(coeffs)
    text = f"{frac.numerator}/{frac.denominator}"
    return f"{whole}+{text}" if whole else text


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def homology_dense(rng: random.Random) -> list[list[str]]:
    """``surgery`` on diagrams of 33 to 41 components, no Legendrian work."""
    k1, k2, k3 = rng.sample(KNOTS, 3)
    chain = _shuffled(rng, (-2,) * 6 + (-3,) * 3 + (-4, -5, -6))
    left = _shuffled(rng, (-2, -2, -3, -5))
    right = _shuffled(rng, (-2, -2, -3, -4, -7))
    return [
        ["surgery", k1, "--slopes", "16"],
        ["surgery", k2, "--slopes", slope_text(14, chain)],
        ["surgery", k3, "--slopes", "20"],
        [
            "surgery",
            rng.choice(LINKS),
            "--slopes",
            f"{slope_text(6, left)},{slope_text(7, right)}",
        ],
    ]


def theta_sweep(rng: random.Random) -> list[list[str]]:
    """``theta`` over all tuples in two regimes, each followed by one
    ``--tuple`` query that the correctness check compares against."""
    commands = []
    for chain in ((-3, -3, -3, -4, -4, -5), (-7, -8, -9)):
        knot = rng.choice(KNOTS)
        chain = _shuffled(rng, chain)
        slope = slope_text(0, chain)
        picks = ",".join(str(rng.randint(1, -a - 1)) for a in chain)
        commands.append(["theta", knot, "--slope", slope])
        commands.append(["theta", knot, "--slope", slope, "--tuple", picks])
    return commands


def enumerate_stream(rng: random.Random) -> list[list[str]]:
    """``enumerate`` streaming every decorated diagram as a JSON line."""
    chain = _shuffled(rng, (-3, -3, -4, -4, -4, -4, -5, -5))
    return [["enumerate", rng.choice(KNOTS), "--slopes", slope_text(0, chain)]]


def _trivial_word(rng: random.Random, strands: int, length: int) -> str:
    """``u u^-1`` for a random positive word ``u``.

    ``u`` has no handle, so the floor probe reduces each shifted word by
    exactly ``length / 2`` cancellations at the centre; the seed moves
    the generators, not the amount of handle reduction.
    """
    u = [rng.randint(1, strands - 1) for _ in range(length // 2)]
    letters = [f"s{g}^1" for g in u] + [f"s{g}^-1" for g in reversed(u)]
    return f"B{strands} " + " ".join(letters)


BRAID_WORDS = ((4, 1600), (5, 1600))


def braid_words(rng: random.Random) -> list[list[str]]:
    """``analyze`` on long words: parse, closure stats and the floor probe."""
    return [["analyze", _trivial_word(rng, m, n)] for m, n in BRAID_WORDS]


def homology_braid(rng: random.Random) -> list[list[str]]:
    """Large linking matrices and long braid words; no Legendrian work and
    little output."""
    return homology_dense(rng) + braid_words(rng)


def theta_enumerate(rng: random.Random) -> list[list[str]]:
    """Many tiny matrices, Legendrian assembly and megabytes of JSON."""
    return theta_sweep(rng) + enumerate_stream(rng)


# Two workloads rather than one per command group: on a machine whose
# speed shifts for tens of seconds at a time, runs of 45 s or more are
# needed to keep run-to-run spread well inside the bounds, even with the
# rescaling of calibrate.py, and the run budget allows that for two
# workloads only.
WORKLOADS = {
    "homology-braid": homology_braid,
    "theta-enumerate": theta_enumerate,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command list of ``workload`` for ``seed``; same seed, same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
