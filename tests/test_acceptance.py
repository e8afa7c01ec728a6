"""Acceptance gate: every criterion as one test, each printing a PASS line.

All algebraic comparisons are exact (tolerance: equality).  Golden data is
the fixture file shipped with the package.  Criteria 1-5 and 9 run the named
checks of `skewcyclic verify-paper`, the one definition of the golden suite;
criterion 7 cross-checks its codes with the brute-force oracle.  The
exhaustive and sampled property suites live in the module tests.
"""

import time

import pytest

from skewcyclic import (
    default_scalars,
    free_distance_bruteforce,
    griesmer_bound,
    singleton_bound,
    unit_product,
)
from skewcyclic.verify import golden_codes, load_default_fixtures, run_checks


@pytest.fixture(scope="module")
def fx():
    return load_default_fixtures()


def _passes(fx, *filters):
    """Run the golden checks matching any filter; every one must pass."""
    results = [r for only in filters for r in run_checks(fx, only=only)]
    failed = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert results and not failed, failed
    return results


def test_criterion_1_factorizations_and_idempotents(fx):
    start = time.time()
    assert len(_passes(fx, "factor-")) == 4
    elapsed = time.time() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\ncriterion 1 PASS: factorizations and idempotents exact ({elapsed:.2f}s)")


def test_criterion_2_automorphism_count(fx):
    start = time.time()
    assert [r.name for r in _passes(fx, "aut-")] == ["aut-F2n7", "aut-F4n3"]
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"criterion 2 PASS: |Aut| = 18 both ways; x^5 induces (1)(2,3) ({elapsed:.2f}s)")


def test_criterion_3_skew_arithmetic_goldens(fx):
    start = time.time()
    assert len(_passes(fx, "skew-F2n7")) == 2
    elapsed = time.time() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"criterion 3 PASS: xg, x^2g, x^3g = g + x^2g; v*v^-1 = 1 ({elapsed:.2f}s)")


def test_criterion_4_generator_matrix_golden(fx):
    _passes(fx, "genmat-F2n7")
    print("criterion 4 PASS: 3x7 generator matrix entry-for-entry; minimal, forney {2,2,2}")


def test_criterion_5_distances(fx):
    start = time.time()
    results = _passes(fx, "dist-F2n7", "minC", "F8n7-")
    assert len(results) == 13
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s"
    print(f"criterion 5 PASS: all {len(results)} distances and printed matrices exact ({elapsed:.1f}s)")


def test_criterion_6_bounds():
    assert singleton_bound(7, 1, 2) == 21
    assert griesmer_bound(3, 1, 6, 6, 4) == 19
    assert griesmer_bound(7, 3, 6, 2, 2) == 12
    assert griesmer_bound(7, 2, 4, 2, 8) == 18
    print("criterion 6 PASS: singleton 21; griesmer 19, 12, 18")


def test_criterion_7_oracle_equivalence(fx):
    start = time.time()
    codes = golden_codes(fx)
    assert len(codes) == 13
    for name, code, want_dist in codes:
        d = free_distance_bruteforce(
            code.generator, code.delta + code.n, cap=2 ** 80
        )
        assert d == want_dist, f"{name}: oracle {d} != {want_dist}"
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.2f}s"
    print(f"criterion 7 PASS: brute-force oracle (D = delta + n) agrees on all codes ({elapsed:.1f}s)")


def test_criterion_8_property_suites(sig43, sig45, sig27):
    """The unit_product degree contract with the default scalars for d <= 6;
    the exhaustive and sampled property suites run in test_ring, test_skew
    and test_builder."""
    start = time.time()
    for sig, l in ((sig43, 2), (sig45, 2), (sig27, 2)):
        ctx = sig.context
        for d in range(0, 7):
            u = unit_product(sig, l, default_scalars(ctx, d))
            assert u.is_unit()
            if d:
                assert u.degree == d
                assert u.component(l).degree == d
                for lp in range(1, ctx.r + 1):
                    if lp != l:
                        assert u.component(lp).degree < d
    elapsed = time.time() - start
    print(f"criterion 8 PASS: unit_product contract with default scalars, d <= 6 ({elapsed:.1f}s)")


def test_criterion_9_complement_golden(fx):
    _passes(fx, "complement-F2n7")
    print("criterion 9 PASS: complement golden; g + g' is a unit with the golden inverse")
