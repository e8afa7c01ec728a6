"""Seeded input generator.

`generate(workload, seed, workdir)` writes the inputs of one run into
`workdir` (descriptors, matrix files, skew literals) and returns the op list.
The same workload and seed always give the same files and the same ops.

There are two workloads, one for each kind of user of the package: `paper`
reproduces the paper's examples and cross-checks the state graph against the
brute-force oracle; `search` builds candidate codes, compares codes and
decides units.

Ops come in rounds.  Every round holds the same strata, one op per stratum
entry, in a seeded order; the seed only picks the details inside a stratum
(component, scalars, permutations).  A run measures whole rounds, so its
op-class mix, and with it the quantiles, stay put from seed to seed.
Expected values come from the context table in `contexts.py` and from how
each input was built, never from the program under test.
"""

from __future__ import annotations

import json
import os
import random

from contexts import CONTEXTS, IDENTITY_F2N7, cycle_of, field_p, field_q, moved_cycles

# Why each workload exists; printed in the run header and kept with the inputs.
WHY = {
    "paper": "the 24 golden checks through verify-paper, plus seeded codes through "
    "free_distance and the brute-force oracle: the reproducibility path, where "
    "the state graph and the oracle do most of the work",
    "search": "seeded candidate codes through build --with-distance and "
    "equivalence, plus is_unit and unit_inverse on seeded units and non-units: "
    "the code-search path, where minors and unit decisions do most of the work",
}

PAPER_CHECKS = (
    "factor-F2n7", "factor-F4n3", "factor-F4n5", "factor-F8n7",
    "aut-F2n7", "aut-F4n3",
    "skew-F2n7-shifts", "skew-F2n7-vinv", "genmat-F2n7", "dist-F2n7",
    "minC3-d1", "minC3-d2", "minC3-d3", "minC3-d4", "minC3-d5", "minC3-d6",
    "minC5-m1", "minC5-m2", "minC5-m3",
    "F8n7-g1", "F8n7-g2", "F8n7-sum",
    "bounds", "complement-F2n7",
)

# Strata are (context, sigma, components, copies per round).  Components are
# (moved-cycle index, Forney index); the seed picks the component inside the
# cycle and the unit scalars.  The automorphism is fixed per stratum, so a
# stratum's cost moves little from seed to seed.

# paper, cross-check part: minimal codes, 27 ops a round next to the 24
# golden checks.  The oracle's cost follows the code's weights (its pruning
# stops at the best weight so far), so it varies from code to code; many
# codes per run keep the quantiles steady.  Of the 51 ops a round, p50 falls
# in the 35-50 ms block (the twelve GF(3) n=4 and GF(4) n=3 codes at q^delta
# = 243-256, three cheaper codes and three golden checks, ranks 37-73%), p90
# in the middle of the seven dear codes (q^delta 256-512, ~260-330 ms, ranks
# 84-96%); above them are only two golden checks.
CROSSCHECK = (
    ("F9n4", "(1,2)(3,4)", ((0, 2),), 1),
    ("F5n4", "(1,2)(3,4)", ((0, 3),), 2),
    ("F3n4", "(1,2)(3)", ((0, 5),), 6),
    ("F4n3", "(1)(2,3)", ((0, 4),), 6),
    ("F3n8", "(1,2)(3,4,5)", ((0, 5),), 4),
    ("F4n3", "(1,2,3)", ((0, 4),), 1),
    # the dear ones
    ("F2n7", "(1)(2,3)", ((0, 3),), 2),
    ("F4n5", "(1)(2,3)", ((0, 2),), 3),
    ("F8n7", "(1,2)(3,4,5)(6)(7)", ((1, 3),), 2),
)

# search, build part: q^delta <= 256, 40 ops a round over GF(2) n=7, GF(4)
# n=3 and 5, GF(8) n=7, GF(3) n=4 and 8, GF(5) n=4, GF(9) n=4, and one GF(2)
# n=15 code, far above p90 but half of the round's time: its 1,365 maximal
# minors are computed six times over.
SEARCH_BUILD = (
    ("F4n3", "(1)(2,3)", ((0, 2),), 3),
    ("F3n4", "(1,2)(3)", ((0, 3),), 3),
    ("F5n4", "(1,2)(3,4)", ((0, 2),), 3),
    ("F4n3", "(1,2,3)", ((0, 3),), 2),
    ("F8n7", "(1,2)(3,4,5)(6)(7)", ((0, 2),), 8),
    ("F4n5", "(1)(2,3)", ((0, 1),), 1),
    ("F9n4", "(1,3)(2,4)", ((0, 2),), 1),
    ("F3n4", "(1,2)(3)", ((0, 5),), 1),
    ("F4n3", "(1,3)(2)", ((0, 4),), 1),
    ("F3n8", "(1,2)(3,5)(4)", ((1, 2),), 1),
    ("F5n4", "(1,4)(2,3)", ((0, 1), (1, 2)), 1),
    ("F2n7", "(1)(2,3)", ((0, 1),), 1),
    ("F4n5", "(1)(2,3)", ((0, 2),), 1),
    ("F2n7", "(1)(2,3)", ((0, 2),), 2),
    ("F8n7", "(1,4)(2,6)(3,7,5)", ((0, 1), (1, 1)), 2),
    ("F9n4", "(1,2)(3,4)", ((0, 1), (1, 1)), 1),
    ("F3n8", "(1,2)(3,4,5)", ((0, 2), (1, 1)), 1),
    ("F2n15", "(1)(2)(3,4,5)", ((0, 2),), 1),
)
# equivalence pairs, n <= 5 (n = 7 would try 5,040 permutations)
SEARCH_EQUIV = (
    ("F4n3", "(1,2,3)", ((0, 2),), 2),
    ("F3n4", "(1,2)(3)", ((0, 3),), 1),
    ("F5n4", "(1,3)(2,4)", ((0, 2),), 1),
    ("F9n4", "(1,4)(2,3)", ((0, 1), (1, 1)), 1),
    ("F4n5", "(1)(2,3)", ((0, 1),), 1),
)

# search, unit part: (context, sigma, moved-cycle index, Forney index of the
# unit part, unit_inverse ops on non-units per round).  Each entry also gives
# the UNITS_MIX counts of fast ops; GF(2) n=15 is left out (a non-unit
# inverse there takes 6-78 s).  With the build part, a round has 146 ops: the
# 81 fast unit decisions (0.6-4 ms) hold p50 near their top, and p90 falls in
# the ~65-90 ms block of non-unit inverses (GF(3) n=4, GF(4) n=5, GF(2) n=7)
# and the dearest build.
UNITS = (
    ("F2n7", "(1)(2,3)", 0, 1, 4),
    ("F4n3", "(1,2,3)", 0, 3, 2),
    ("F4n5", "(1)(2,3)", 0, 2, 5),
    ("F8n7", "(1,2)(3,4,5)(6)(7)", 0, 1, 3),
    ("F3n4", "(1,2)(3)", 0, 3, 3),
    ("F3n8", "(1,2)(3,4,5)", 0, 1, 3),
    ("F5n4", "(1,2)(3,4)", 0, 2, 2),
    ("F9n4", "(1,2)(3,4)", 0, 2, 2),
)
UNITS_MIX = (("is_unit", True, 3), ("is_unit", False, 3), ("inverse", True, 4), ("inverse", False, None))

CONTEXTS_OF = {
    "paper": tuple(c for c in CONTEXTS if c != "F2n15"),
    "search": tuple(CONTEXTS),
}

# rounds generated per run; the timed loop cycles through them
ROUNDS = {"paper": 12, "search": 12}


# -- literals ------------------------------------------------------------------


def field_scalar(rng, name):
    """A random nonzero field element, as a literal."""
    q, p = field_q(name), field_p(name)
    if q == p:
        return str(rng.randrange(1, p))
    e = rng.randrange(q - 1)
    return "1" if e == 0 else ("a" if e == 1 else f"a^{e}")


def unit_literal(rng, name):
    """c * x^i with c a nonzero field element: always a unit of A."""
    c = field_scalar(rng, name)
    i = rng.randrange(CONTEXTS[name]["n"])
    if i == 0:
        return c
    xi = "x" if i == 1 else f"x^{i}"
    return xi if c == "1" else f"{c}*{xi}"


def code_spec(rng, name, sigma, comps):
    """A descriptor dict carrying the predicted k, delta and Forney indices."""
    spec = CONTEXTS[name]
    cycles = moved_cycles(sigma)
    recipe = []
    k = delta = 0
    forney = []
    for ci, d in comps:
        l = rng.choice(cycles[ci])
        kappa = spec["kappas"][l - 1]
        recipe.append({"l": l, "d": d, "scalars": [unit_literal(rng, name) for _ in range(d)]})
        k += kappa
        delta += d * kappa
        forney += [d] * kappa
    return {
        "field": spec["field"],
        "n": spec["n"],
        "sigma": "perm:" + sigma,
        "recipe": recipe[0] if len(recipe) == 1 else {"components": recipe},
        "expected": {"k": k, "delta": delta, "forney": sorted(forney)},
    }


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


# -- workloads -----------------------------------------------------------------


def _expect(desc, name, comps):
    exp = dict(desc["expected"])
    exp.update(n=CONTEXTS[name]["n"], q=field_q(name), m=max(d for _, d in comps))
    return exp


def _stratum(prefix, name, sigma, comps):
    return f"{prefix}-{name}{sigma}-" + "+".join(f"c{ci}d{d}" for ci, d in comps)


def _paper_checks():
    return [
        {
            "kind": "paper",
            "stratum": name,
            "argv": ["verify-paper", "--only", name, "--format", "json"],
            "check": name,
        }
        for name in PAPER_CHECKS
    ]


def _crosscheck_ops(rng, workdir, r):
    ops = []
    for name, sigma, comps, copies in CROSSCHECK:
        for _ in range(copies):
            desc = code_spec(rng, name, sigma, comps)
            path = os.path.join(workdir, f"cross-r{r}-{len(ops)}.json")
            _write_json(path, desc)
            ops.append({
                "kind": "crosscheck",
                "stratum": _stratum("cross", name, sigma, comps),
                "descriptor": path,
                "expect": _expect(desc, name, comps),
            })
    return ops


def _paper(rng, workdir, rounds):
    ops = []
    for r in range(rounds):
        rnd = _paper_checks() + _crosscheck_ops(rng, workdir, r)
        rng.shuffle(rnd)
        for op in rnd:
            op["round"] = r
        ops.extend(rnd)
    return ops


def _build_ops(rng, workdir, r):
    ops = []
    for name, sigma, comps, copies in SEARCH_BUILD:
        for _ in range(copies):
            desc = code_spec(rng, name, sigma, comps)
            path = os.path.join(workdir, f"code-r{r}-{len(ops)}.json")
            _write_json(path, desc)
            ops.append({
                "kind": "build",
                "stratum": _stratum("build", name, sigma, comps),
                "argv": ["build", "--recipe", path, "--with-distance"],
                "expect": _expect(desc, name, comps),
            })
    for name, sigma, comps, copies in SEARCH_EQUIV:
        for _ in range(copies):
            desc = code_spec(rng, name, sigma, comps)
            n = CONTEXTS[name]["n"]
            perm = list(range(n))
            while perm == list(range(n)):
                rng.shuffle(perm)
            scales = [field_scalar(rng, name) for _ in range(n)]
            a = os.path.join(workdir, f"equiv-r{r}-{len(ops)}-a.json")
            b = os.path.join(workdir, f"equiv-r{r}-{len(ops)}-b.json")
            ops.append({
                "kind": "equivalence",
                "stratum": _stratum("equiv", name, sigma, comps),
                "argv": ["equivalence", "--field", desc["field"], "--matrix-a", a, "--matrix-b", b],
                "pair": {"descriptor": desc, "perm": perm, "scales": scales},
                "files": (a, b),
            })
    return ops


def _write_equivalence_pairs(ops):
    """Matrix files: a code's generator matrix and a column-permuted copy
    with every column scaled by a nonzero constant.  The code is built with
    the library, as a user preparing a query would."""
    import skewcyclic as sc
    from skewcyclic import literals

    from ops import build_code

    for op in ops:
        if op["kind"] != "equivalence":
            continue
        pair = op.pop("pair")
        desc = pair["descriptor"]
        ctx = sc.RingContext(literals.parse_field(desc["field"]), desc["n"])
        code = build_code(sc, literals.parse_sigma(ctx, desc["sigma"]), desc)
        G = code.generator
        field = G.field
        scale = [literals.parse_poly(field, s, "z") for s in pair["scales"]]
        entries = [
            [G.entries[i][pair["perm"][j]] * scale[j] for j in range(G.ncols)]
            for i in range(G.nrows)
        ]
        B = sc.PolyMatrix(field, entries)
        a, b = op.pop("files")
        _write_json(a, literals.matrix_to_dict(G))
        _write_json(b, literals.matrix_to_dict(B))


class _UnitMaker:
    """Skew polynomials whose unit status is known from how they were built;
    they are kept as literals in one file."""

    def __init__(self, path):
        self.path = path
        self.sigmas = {}
        self.literals = {}

    def sigma(self, name, sigma_text):
        from skewcyclic import RingContext
        from skewcyclic.literals import parse_field, parse_sigma

        key = (name, sigma_text)
        if key not in self.sigmas:
            spec = CONTEXTS[name]
            ctx = RingContext(parse_field(spec["field"]), spec["n"])
            self.sigmas[key] = parse_sigma(ctx, sigma_text)
        return self.sigmas[key]

    def op(self, name, sigma_text, poly, unit, kind, stratum):
        key = f"u{len(self.literals)}"
        self.literals[key] = {"context": name, "sigma": sigma_text, "skew": str(poly), "unit": unit}
        return {"kind": kind, "stratum": stratum, "literal": key, "unit": unit, "literals": self.path}

    def round_ops(self, rng):
        from skewcyclic import SkewPoly, unit_product
        from skewcyclic.literals import parse_ring_element

        ops = []
        for name, text, ci, d, slow in UNITS:
            sigma_text = "perm:" + text
            sig = self.sigma(name, sigma_text)
            ctx = sig.context
            for kind, unit, count in UNITS_MIX:
                for _ in range(slow if count is None else count):
                    l = rng.choice(moved_cycles(text)[ci])
                    scalars = [parse_ring_element(ctx, unit_literal(rng, name)) for _ in range(d)]
                    c = parse_ring_element(ctx, unit_literal(rng, name))
                    u = unit_product(sig, l, scalars) * SkewPoly.constant(sig, c)
                    if not unit:
                        # 1 + z c' e_C has equal degrees on the whole cycle C
                        e_c = ctx.zero
                        for j in cycle_of(text, l):
                            e_c = e_c + ctx.idempotent(j)
                        c2 = parse_ring_element(ctx, unit_literal(rng, name))
                        u = u * (SkewPoly.one(sig) + SkewPoly.z_power(sig, 1, c2 * e_c))
                    tag = "unit" if unit else "nonunit"
                    ops.append(self.op(name, sigma_text, u, unit, kind, f"{kind}-{tag}-{name}"))
        # identity twist: 1 + z a with a != 0 is never a unit
        name, sigma_text = IDENTITY_F2N7["context"], IDENTITY_F2N7["sigma"]
        sig = self.sigma(name, sigma_text)
        ctx = sig.context
        for kind in ("is_unit", "inverse"):
            codes = [0] * ctx.n
            while not any(codes):
                codes = [rng.randrange(2) for _ in range(ctx.n)]
            u = SkewPoly.one(sig) + SkewPoly.z_power(sig, 1, ctx.from_codes(codes))
            ops.append(self.op(name, sigma_text, u, False, kind, f"{kind}-identity-{name}"))
        return ops

    def write(self):
        _write_json(self.path, self.literals)


def _search(rng, workdir, rounds):
    units = _UnitMaker(os.path.join(workdir, "skew-literals.json"))
    ops = []
    for r in range(rounds):
        rnd = _build_ops(rng, workdir, r) + units.round_ops(rng)
        rng.shuffle(rnd)
        for op in rnd:
            op["round"] = r
        ops.extend(rnd)
    _write_equivalence_pairs(ops)
    units.write()
    return ops


_MAKERS = {"paper": _paper, "search": _search}


def generate(workload, seed, workdir, rounds=None):
    """Write the inputs of one run into workdir and return its op list."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = _MAKERS[workload](rng, workdir, rounds or ROUNDS[workload])
    for i, op in enumerate(ops):
        op["id"] = i
    _write_json(os.path.join(workdir, "ops.json"), {"workload": workload, "seed": seed, "why": WHY[workload], "ops": ops})
    return ops


if __name__ == "__main__":
    # python3 perfbench/gen.py <workload> <seed> <workdir>
    import sys

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
