"""The benchmark's own table of ring contexts.

Each entry fixes a field literal, a length n, the degrees of the ordered
irreducible factors of x^n - 1 (the component degrees kappa_1..kappa_r) and
the automorphisms the generator may use, written as permutations of the
component indices.  The generator derives every expected parameter from this
table, never from the program; `check_against_program` confirms the table
during set-up, so a wrong entry fails the run instead of skewing a check.
"""

from __future__ import annotations

# name -> field literal, length, factor degrees, sigma choices (cycle lists)
CONTEXTS = {
    "F2n7": {
        "field": "GF(2)",
        "n": 7,
        "kappas": (1, 3, 3),
        "sigmas": ("(1)(2,3)",),
    },
    "F4n3": {
        "field": "GF(4):y^2+y+1",
        "n": 3,
        "kappas": (1, 1, 1),
        "sigmas": ("(1)(2,3)", "(1,3)(2)", "(1,2,3)"),
    },
    "F4n5": {
        "field": "GF(4):y^2+y+1",
        "n": 5,
        "kappas": (1, 2, 2),
        "sigmas": ("(1)(2,3)",),
    },
    "F8n7": {
        "field": "GF(8):y^3+y+1",
        "n": 7,
        "kappas": (1, 1, 1, 1, 1, 1, 1),
        "sigmas": (
            "(1,2)(3,4,5)(6)(7)",
            "(1,4)(2,6)(3,7,5)",
            "(1,7,3)(2,5)(4)(6)",
        ),
    },
    "F3n4": {
        "field": "GF(3)",
        "n": 4,
        "kappas": (1, 1, 2),
        "sigmas": ("(1,2)(3)",),
    },
    "F3n8": {
        "field": "GF(3)",
        "n": 8,
        "kappas": (1, 1, 2, 2, 2),
        "sigmas": ("(1,2)(3,4,5)", "(1,2)(3,5)(4)"),
    },
    "F5n4": {
        "field": "GF(5)",
        "n": 4,
        "kappas": (1, 1, 1, 1),
        "sigmas": ("(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"),
    },
    "F9n4": {
        "field": "GF(9):y^2+1",
        "n": 4,
        "kappas": (1, 1, 1, 1),
        "sigmas": ("(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"),
    },
    "F2n15": {
        "field": "GF(2)",
        "n": 15,
        "kappas": (1, 2, 4, 4, 4),
        "sigmas": ("(1)(2)(3,4,5)",),
    },
}

# the identity twist, written as the image of x; its only units are constants
IDENTITY_F2N7 = {"context": "F2n7", "sigma": "x"}


def field_q(name: str) -> int:
    text = CONTEXTS[name]["field"]
    return int(text[3 : text.index(")")])


def field_p(name: str) -> int:
    q = field_q(name)
    return next(p for p in range(2, q + 1) if q % p == 0)


def parse_cycles(text: str):
    """'(1,2)(3)' -> [(1, 2), (3,)]"""
    cycles = []
    for grp in text.strip("()").split(")("):
        cycles.append(tuple(int(t) for t in grp.split(",")))
    return cycles


def cycle_of(text: str, l: int):
    return next(c for c in parse_cycles(text) if l in c)


def moved_cycles(text: str):
    return [c for c in parse_cycles(text) if len(c) > 1]


def permutation(text: str, r: int):
    """1-based image tuple of the permutation written as cycles."""
    perm = list(range(1, r + 1))
    for cyc in parse_cycles(text):
        for i, src in enumerate(cyc):
            perm[src - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def check_against_program(names, built):
    """Compare the table with contexts the program built.

    `built` maps a context name to (RingContext, automorphism list).  Returns
    a list of mismatch messages; empty when the table holds.
    """
    problems = []
    for name in names:
        spec = CONTEXTS[name]
        ctx, auts = built[name]
        if tuple(ctx.kappas) != spec["kappas"]:
            problems.append(f"{name}: factor degrees {ctx.kappas} != {spec['kappas']}")
            continue
        perms = {a.perm for a in auts}
        for text in spec["sigmas"]:
            if permutation(text, ctx.r) not in perms:
                problems.append(f"{name}: no automorphism induces {text}")
    return problems
