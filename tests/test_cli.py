import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from helpers import full_cli_parser

from skewcyclic import cli
from skewcyclic.literals import MAX_Z_DEGREE, matrix_from_dict, parse_field
from skewcyclic.verify import load_default_fixtures


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--field", "GF(2)", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert [f["poly"] for f in data["factors"]] == ["1+x", "1+x+x^3", "1+x^2+x^3"]
    assert data["factors"][0]["idempotent"] == "1+x+x^2+x^3+x^4+x^5+x^6"
    assert data["degree_classes"] == [[1], [2, 3]]


def test_factor_table(capsys):
    code, out, _ = run(capsys, "factor", "--field", "GF(4):y^2+y+1", "--n", "3", "--format", "table")
    assert code == 0
    assert "pi_2 = a+x" in out


def test_factor_noncoprime_exit_2(capsys):
    code, _, err = run(capsys, "factor", "--field", "GF(2)", "--n", "2")
    assert code == 2
    assert "coprime" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_factor_nonpositive_length_exit_2(capsys, n):
    code, _, err = run(capsys, "factor", "--field", "GF(2)", "--n", n)
    assert code == 2
    assert "length must be positive" in err and "coprime" not in err


def test_parse_error_exit_3(capsys):
    code, _, err = run(capsys, "factor", "--field", "GF(7):nope", "--n", "3")
    assert code == 3
    # a '*' with nothing on one side is a parse error, not x or the constant 1
    code, _, err = run(capsys, "factor", "--field", "GF(4):*y^2+y+1", "--n", "3")
    assert code == 3 and "'*' needs a factor on each side" in err
    # permutation indices must lie in 1..r and appear at most once
    for perm in ("perm:(1,9)", "perm:(0,1)", "perm:(2,3)(2,3)"):
        code, _, err = run(
            capsys, "automorphisms", "--field", "GF(2)", "--n", "7", "--sigma", perm
        )
        assert code == 3 and "permutation index" in err


_NINES = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "sigma", [f"x^{_NINES}", f"{_NINES}*x+1", f"perm:({_NINES})"], ids=["power", "coefficient", "perm"]
)
def test_oversized_number_in_sigma_exit_3(capsys, sigma):
    code, _, err = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "7", "--sigma", sigma)
    assert code == 3 and "5000 digits" in err


def test_oversized_number_in_descriptor_exit_3(tmp_path, capsys):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({**_GOOD_DESC, "recipe": {"l": 2, "d": 1, "scalars": [f"x^{_NINES}"]}}))
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 3 and err.startswith("parse error:") and "5000 digits" in err


@pytest.mark.parametrize("field", [
    "GF(512)", "GF(65537)", "GF(1024):y^10+y^3+1",
    # refused before q is factored by trial division up to sqrt(q), which
    # takes minutes for this q; a q that is no prime power too
    "GF(1000000000000000003)", "GF(1000000)",
    # more digits than int() converts
    pytest.param("GF(" + "9" * 5000 + ")", id="GF(5000 nines)"),
])
def test_field_size_cap_exit_2(capsys, field):
    start = time.perf_counter()
    code, _, err = run(capsys, "factor", "--field", field, "--n", "3")
    assert code == 2
    assert "MAX_FIELD_SIZE" in err and len(err) < 200  # a long q is not echoed
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field", ["GF(1)", "GF(0)"])
def test_field_size_below_two_exit_3(capsys, field):
    code, out, err = run(capsys, "factor", "--field", field, "--n", "3")
    assert (code, out, err) == (3, "", "parse error: field size must be >= 2\n")


@pytest.mark.parametrize("field", ["GF(8):y^10000000+y+1", "GF(8):y^1000000000+y+1"])
def test_modulus_exponent_above_degree_exit_3(capsys, field):
    start = time.perf_counter()
    code, _, err = run(capsys, "factor", "--field", field, "--n", "7")
    assert code == 3
    assert "exceeds 3" in err and len(err) < 200
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("exponent", ["100000", "1000000"])
def test_generator_z_exponent_cap_exit_3(tmp_path, capsys, exponent):
    path = tmp_path / "recipe.json"
    desc = {"field": "GF(2)", "n": 7, "sigma": "x", "generator": f"1+x+z^{exponent}"}
    path.write_text(json.dumps(desc))
    start = time.perf_counter()
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 3
    assert f"in z exceeds {MAX_Z_DEGREE}" in err and len(err) < 200
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("d", [MAX_Z_DEGREE + 1, 10 ** 8])
def test_recipe_forney_index_cap_exit_2(tmp_path, capsys, d):
    # without scalars the recipe would build d default scalars first
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({**_GOOD_DESC, "recipe": {"l": 2, "d": d}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 2
    assert f"MAX_Z_DEGREE = {MAX_Z_DEGREE}" in err and len(err) < 200
    assert time.perf_counter() - start < 1.0


def test_equivalence_z_exponent_cap_exit_3(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1", "1+z^1000000"]]}))
    start = time.perf_counter()
    code, _, err = run(
        capsys, "equivalence", "--field", "GF(2)", "--matrix-a", str(pa), "--matrix-b", str(pa)
    )
    assert code == 3
    assert f"in z exceeds {MAX_Z_DEGREE}" in err and len(err) < 200
    assert time.perf_counter() - start < 1.0


def test_automorphisms_sigma_does_not_enumerate(monkeypatch, capsys):
    def refuse(ctx):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(cli, "enumerate_automorphisms", refuse)
    code, out, _ = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "7", "--sigma", "x^5")
    assert code == 0
    assert json.loads(out) == {
        "field": "GF(2)",
        "n": 7,
        "count": 18,
        "automorphisms": [
            {"image": "x^5", "cycles": "(1)(2,3)", "orders": {"1": 1, "2": 2, "3": 2}}
        ],
    }
    code, out, _ = run(
        capsys, "automorphisms", "--field", "GF(8)", "--n", "7", "--sigma", "x^3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5040  # seven linear factors: 7!
    assert [a["image"] for a in data["automorphisms"]] == ["x^3"]


def test_automorphisms_count(capsys):
    code, out, _ = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "7")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 18
    images = {a["image"] for a in data["automorphisms"]}
    assert "x^5" in images
    cycles = {a["image"]: a["cycles"] for a in data["automorphisms"]}
    assert cycles["x^5"] == "(1)(2,3)"
    assert cycles["x"] == "(1)(2)(3)"


# SHA-256 of the stdout of `automorphisms --field "GF(8):y^3+y+1" --n 7`, all
# 5,040 entries, recorded with a build that validated every enumerated
# automorphism through Automorphism(ctx, image)
AUTOMORPHISMS_F8N7_SHA256 = "46a418b58e53d07273101182fd0e7946270d611a86b4740aee576fa4a6ac7fbd"


def test_automorphisms_listing_pinned(capsys):
    code, out, _ = run(capsys, "automorphisms", "--field", "GF(8):y^3+y+1", "--n", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUTOMORPHISMS_F8N7_SHA256


# SHA-256 of the stdout of `automorphisms --field "GF(2)" --n 15`, all 768
# entries (three degree classes, Frobenius twists of orders 1, 2 and 4),
# recorded with the enumeration that built each sigma(x) by one CRT lift of
# its r roots
AUTOMORPHISMS_F2N15_SHA256 = "3178a0c7ada55b508c787215cb1179273634dc5a3824e6690bc5c9b4e1534aa7"


def test_automorphisms_listing_pinned_f2n15(capsys):
    code, out, _ = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "15")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUTOMORPHISMS_F2N15_SHA256


# SHA-256 of the stdout of `verify-paper --format json`, every golden check,
# recorded with the state graph that relaxed one edge at a time and the
# oracle that looped over every block of a fan
VERIFY_PAPER_JSON_SHA256 = "35de3ae74531a8fd5ef5dc229e17307daace251c5719a662316ab801f3ba512c"


def test_verify_paper_json_pinned(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_JSON_SHA256


def _cli_process(*argv):
    """The CLI in a child process with block-buffered stdout, as in a shell
    pipeline, reading this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "skewcyclic.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def _exit_and_stderr(proc):
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_closed_pipe_is_quiet(fmt):
    """A reader that takes one line of a long listing and closes the pipe
    leaves no traceback on stderr, and the command keeps its own exit code."""
    proc = _cli_process("automorphisms", "--field", "GF(8):y^3+y+1", "--n", "7", "--format", fmt)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert _exit_and_stderr(proc) == (0, b"")


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--n", "7", "--k", "2", "--delta", "4", "--m", "2", "--q", "8"], 0),
    (["verify-paper", "--only", "no-such-check", "--format", "table"], 1),
], ids=["bounds", "verify-no-match"])
def test_pipe_closed_before_a_short_output(argv, code):
    """An output shorter than the stdout buffer meets the closed pipe when it
    is flushed: still no message on stderr but the command's own, and the
    command's own exit code."""
    proc = _cli_process(*argv)
    proc.stdout.close()
    want = b"no checks matched the filter\n" if code else b""
    assert _exit_and_stderr(proc) == (code, want)


def test_automorphisms_cap_before_enumerating(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "31")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "11250000 automorphisms exceed MAX_LISTED_AUTOMORPHISMS" in err
    # one named automorphism is still shown, with the full count
    code, out, _ = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "31", "--sigma", "x^2")
    assert code == 0 and json.loads(out)["count"] == 11250000


def test_automorphisms_table_prints_count_first(capsys):
    code, out, _ = run(
        capsys, "automorphisms", "--field", "GF(4):y^2+y+1", "--n", "3", "--format", "table"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("6 automorphisms")


def test_build_recipe_and_expected(tmp_path, capsys):
    desc = {
        "field": "GF(4):y^2+y+1",
        "n": 3,
        "sigma": "x^2",
        "recipe": {"l": 2, "d": 2, "scalars": ["1", "a"]},
        "expected": {"k": 1, "delta": 2, "forney": [2], "distance": 9},
    }
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "build", "--recipe", str(path))
    assert code == 0, err
    data = json.loads(out)
    assert data["parameters"] == {"n": 3, "k": 1, "delta": 2}
    assert data["forney"] == [2]
    assert data["distance"]["distance"] == 9
    assert data["generator_matrix"]["entries"] == [
        ["1+z+a*z^2", "a^2+a*z+z^2", "a+a^2*z+a^2*z^2"]
    ]


def test_build_expected_mismatch_exit_1(tmp_path, capsys):
    desc = {
        "field": "GF(4):y^2+y+1",
        "n": 3,
        "sigma": "x^2",
        "recipe": {"l": 2, "d": 1, "scalars": ["1"]},
        "expected": {"distance": 7},
    }
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 1
    assert "expected-mismatch" in err


def test_build_expected_delta_mismatch_exit_1(tmp_path, capsys):
    desc = {**_GOOD_DESC, "recipe": {"l": 2, "d": 2, "scalars": ["1", "a"]}, "expected": {"delta": 3}}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "build", "--recipe", str(path))
    assert (code, err) == (1, "expected-mismatch: delta = 2, expected 3\n")
    assert json.loads(out)["parameters"]["delta"] == 2  # the built code is still shown


def test_build_fixed_idempotent_exit_4(tmp_path, capsys):
    desc = {
        "field": "GF(4):y^2+y+1",
        "n": 3,
        "sigma": "x^2",
        "recipe": {"l": 1, "d": 1, "scalars": ["1"]},
    }
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 4
    assert "FixedIdempotent" in err


@pytest.mark.parametrize("d", [0, 1])
def test_build_component_index_out_of_range_exit_4(tmp_path, capsys, d):
    """A recipe component index past r exits 4 with the index named, for
    d = 0 too, where no scalar or cycle order is read."""
    desc = {"field": "GF(4):y^2+y+1", "n": 3, "sigma": "x^2", "recipe": {"l": 99, "d": d}}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "build", "--recipe", str(path))
    assert (code, out, err) == (4, "", "IndexOutOfRange: component index 99 not in 1..3\n")


_GOOD_DESC = {
    "field": "GF(4):y^2+y+1",
    "n": 3,
    "sigma": "x^2",
    "recipe": {"l": 2, "d": 1, "scalars": ["1"]},
}


@pytest.mark.parametrize(
    "desc",
    [
        5,
        "ab",
        {**_GOOD_DESC, "recipe": "x"},
        {**_GOOD_DESC, "recipe": {"components": 5}},
        {**_GOOD_DESC, "recipe": {"components": []}},
        {**_GOOD_DESC, "recipe": {"l": 2, "d": 1, "scalars": 5}},
        {**_GOOD_DESC, "recipe": {"l": 2, "d": 1, "scalars": [1]}},
        {**_GOOD_DESC, "expected": 5},
        {**_GOOD_DESC, "expected": 0},
        {**_GOOD_DESC, "expected": []},
        {**_GOOD_DESC, "expected": ""},
        {**_GOOD_DESC, "expected": False},
        {**_GOOD_DESC, "expected": None},
        {**_GOOD_DESC, "generator": 5},
        {**_GOOD_DESC, "sigma": 7},
        {**_GOOD_DESC, "field": 4},
        {"field": "GF(4):y^2+y+1", "n": 3, "sigma": "x^2", "l": 2, "d": 1, "scalars": ["1"]},
        {k: v for k, v in _GOOD_DESC.items() if k != "sigma"},
        {**_GOOD_DESC, "recipe": {"components": [{"l": 2, "scalars": ["1"]}]}},
        {**_GOOD_DESC, "n": 3.9},
        {**_GOOD_DESC, "n": "3"},
        {**_GOOD_DESC, "n": True},
        {**_GOOD_DESC, "recipe": {"l": 2.7, "d": 1, "scalars": ["1"]}},
        {**_GOOD_DESC, "recipe": {"l": 2, "d": 1.9, "scalars": ["1"]}},
        {**_GOOD_DESC, "recipe": {"l": 2, "d": True, "scalars": ["1"]}},
        {**_GOOD_DESC, "expected": {"k": 2.0}},
        {**_GOOD_DESC, "expected": {"delta": "2"}},
        {**_GOOD_DESC, "expected": {"distance": None}},
        {**_GOOD_DESC, "expected": {"forney": 3}},
        {**_GOOD_DESC, "expected": {"forney": None}},
        {**_GOOD_DESC, "expected": {"forney": [1, "a"]}},
        {**_GOOD_DESC, "expected": {"forney": [False, 1]}},
    ],
    ids=[
        "top-level-number", "top-level-string", "recipe-not-object",
        "components-not-list", "components-empty", "scalars-not-list",
        "scalar-not-string", "expected-not-object", "expected-zero",
        "expected-empty-list", "expected-empty-string", "expected-false",
        "expected-null", "generator-not-string",
        "sigma-not-string", "field-not-string", "flat-recipe",
        "sigma-missing", "component-without-d",
        "n-float", "n-string", "n-bool", "l-float", "d-float", "d-bool",
        "expected-k-float", "expected-delta-string", "expected-distance-null",
        "forney-number", "forney-null", "forney-string-entry", "forney-bool-entry",
    ],
)
def test_build_malformed_descriptor_exit_3(tmp_path, capsys, desc):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 3
    assert err.startswith("parse error:") and len(err) < 200


def test_distance_malformed_expected_forney_exit_3(tmp_path, capsys):
    """distance reads the expected block as build does: a Forney list
    with a non-integer entry is a parse error, not a traceback."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({**_GOOD_DESC, "expected": {"forney": [1, "a"]}}))
    code, _, err = run(capsys, "distance", "--recipe", str(path))
    assert code == 3
    assert err.startswith("parse error:") and len(err) < 200


def test_build_override_zero_length_exit_2(tmp_path, capsys):
    """--n 0 overrides the descriptor's n (it is not read as "no override")
    and reaches RingContext, which rejects it."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(_GOOD_DESC))
    code, _, err = run(capsys, "build", "--recipe", str(path), "--n", "0")
    assert code == 2
    code, out, _ = run(capsys, "build", "--recipe", str(path), "--n", "3")
    assert code == 0 and json.loads(out)["n"] == 3


def test_build_with_distance_decides_right_invertibility_once(tmp_path, capsys, monkeypatch):
    """build --with-distance runs exactly one column reduction, as
    ConvCode.from_reduced on the same generator does: the free-distance
    search reads the build's right-invertibility answer instead of
    deciding it again."""
    from skewcyclic.convolutional import ConvCode, PolyMatrix
    from skewcyclic.literals import parse_sigma
    from skewcyclic.ring import RingContext
    from skewcyclic.skew import unit_product

    calls = []
    reduction = PolyMatrix._column_reduction

    def counting_reduction(self, *args, **kwargs):
        calls.append(1)
        return reduction(self, *args, **kwargs)

    monkeypatch.setattr(PolyMatrix, "_column_reduction", counting_reduction)
    desc = {"field": "GF(2)", "n": 7, "sigma": "x^5", "recipe": {"l": 2, "d": 2}}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "build", "--recipe", str(path), "--with-distance")
    assert code == 0, err
    assert json.loads(out)["distance"]["distance"] == 12
    built = len(calls)
    sigma = parse_sigma(RingContext(parse_field("GF(2)"), 7), "x^5")
    ctx = sigma.context
    g = unit_product(sigma, 2, [ctx.one, ctx.one]).component(2)
    del calls[:]
    ConvCode.from_reduced(g)
    assert built == len(calls) == 1


def test_build_multi_component(tmp_path, capsys):
    desc = {
        "field": "GF(8):y^3+y+1",
        "n": 7,
        "sigma": "perm:(1,2)(3,4,5)",
        "recipe": {
            "components": [
                {"l": 1, "d": 2, "scalars": ["1", "a"]},
                {"l": 3, "d": 2, "scalars": ["a", "a"]},
            ]
        },
        "expected": {"k": 2, "delta": 4, "forney": [2, 2], "distance": 18},
    }
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "build", "--recipe", str(path))
    assert code == 0, err
    fixtures = load_default_fixtures()
    got = json.loads(out)["generator_matrix"]["entries"]
    field = parse_field("GF(8):y^3+y+1")
    want = matrix_from_dict(
        field, {"rows": 2, "cols": 7, "entries": fixtures["F8n7"]["sum_matrix"]}
    )
    assert matrix_from_dict(field, {"rows": 2, "cols": 7, "entries": got}) == want


def test_build_output_is_idempotent_serialization(tmp_path, capsys):
    desc = {
        "field": "GF(4):y^2+y+1",
        "n": 3,
        "sigma": "x^2",
        "recipe": {"l": 2, "d": 1, "scalars": ["1"]},
    }
    path = tmp_path / "r1.json"
    path.write_text(json.dumps(desc))
    code, out1, _ = run(capsys, "build", "--recipe", str(path))
    assert code == 0
    data = json.loads(out1)
    # feed the produced generator polynomial back in as the descriptor
    desc2 = {
        "field": data["field"],
        "n": data["n"],
        "sigma": data["sigma"],
        "generator": data["generator"],
    }
    path2 = tmp_path / "r2.json"
    path2.write_text(json.dumps(desc2))
    code, out2, _ = run(capsys, "build", "--recipe", str(path2))
    assert code == 0
    data2 = json.loads(out2)
    for key in ("parameters", "forney", "generator_matrix", "generator", "support"):
        assert data2[key] == data[key]


def test_distance_command(tmp_path, capsys):
    desc = {
        "field": "GF(2)",
        "n": 7,
        "sigma": "x^5",
        "generator": "1+x^2+x^3+x^4 + z*(x+x^2+x^3+x^5) + z^2*(1+x+x^4+x^6)",
    }
    path = tmp_path / "code.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "distance", "--recipe", str(path))
    assert code == 0, err
    data = json.loads(out)
    assert data["distance"] == 12
    assert data["griesmer"] == 12
    assert data["attains"] == "griesmer"
    assert data["parameters"] == {"n": 7, "k": 3, "delta": 6}


def test_bounds_command(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "7", "--k", "2", "--delta", "4", "--m", "2", "--q", "8"
    )
    assert code == 0
    data = json.loads(out)
    assert data["singleton"] == 20 and data["griesmer"] == 18


@pytest.mark.parametrize("n, k, delta, m, q, singleton, griesmer", [
    (10, 3, 1000000, 333334, 2, 3333339, 1666696),
    (1000000, 3, 1000000, 400000, 256, 333333999999, 333333999999),
])
def test_bounds_large_parameters_bisect(capsys, n, k, delta, m, q, singleton, griesmer):
    """The Griesmer bound bisects over [1, S] and sums only the terms with
    q^l < d, so neither a large S nor a level with 200,000 terms is walked."""
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "bounds", "--n", str(n), "--k", str(k), "--delta", str(delta),
        "--m", str(m), "--q", str(q),
    )
    assert code == 0
    data = json.loads(out)
    assert (data["singleton"], data["griesmer"]) == (singleton, griesmer)
    assert time.perf_counter() - start < 1.0


def test_bounds_bad_parameters_exit_2(capsys):
    code, _, err = run(
        capsys, "bounds", "--n", "3", "--k", "3", "--delta", "0", "--m", "0", "--q", "2"
    )
    assert code == 2


def test_bounds_impossible_forney_data_exit_2_at_once(capsys):
    """m = 0 with delta = 3000 describes no code; it is refused before the
    Griesmer levels, which would take time quadratic in delta."""
    start = time.perf_counter()
    code, _, _ = run(
        capsys, "bounds", "--n", "8", "--k", "1", "--delta", "3000", "--m", "0", "--q", "2"
    )
    assert code == 2
    assert time.perf_counter() - start < 1.0


def test_equivalence_command(tmp_path, capsys):
    a = {"rows": 1, "cols": 3, "entries": [["1+z", "a^2+a*z", "a+a^2*z"]]}
    b = {"rows": 1, "cols": 3, "entries": [["a^2+a*z", "1+z", "a+a^2*z"]]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, out, _ = run(
        capsys, "equivalence", "--field", "GF(4):y^2+y+1",
        "--matrix-a", str(pa), "--matrix-b", str(pb),
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is True
    c = {"rows": 1, "cols": 3, "entries": [["1", "z", "z"]]}
    pc = tmp_path / "c.json"
    pc.write_text(json.dumps(c))
    code, out, _ = run(
        capsys, "equivalence", "--field", "GF(4):y^2+y+1",
        "--matrix-a", str(pa), "--matrix-b", str(pc),
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_equivalence_missing_matrix_file_exit_3(tmp_path, capsys):
    a = {"rows": 1, "cols": 3, "entries": [["1+z", "a^2+a*z", "a+a^2*z"]]}
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(a))
    code, _, err = run(
        capsys, "equivalence", "--field", "GF(4):y^2+y+1",
        "--matrix-a", str(pa), "--matrix-b", str(tmp_path / "missing.json"),
    )
    assert code == 3
    assert "missing.json" in err


@pytest.mark.parametrize(
    "matrix",
    [
        {"rows": 0, "cols": 0, "entries": []},
        {"rows": 1, "cols": 3, "entries": 5},
        {"rows": 1, "cols": 2, "entries": [[1, 2]]},
        {"rows": 1, "entries": [["1+z", "a^2+a*z", "a+a^2*z"]]},
    ],
    ids=["empty", "entries-not-a-list", "entries-not-strings", "cols-missing"],
)
def test_equivalence_bad_matrix_exit_3(tmp_path, capsys, matrix):
    a = {"rows": 1, "cols": 3, "entries": [["1+z", "a^2+a*z", "a+a^2*z"]]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(matrix))
    code, _, err = run(
        capsys, "equivalence", "--field", "GF(4):y^2+y+1",
        "--matrix-a", str(pa), "--matrix-b", str(pb),
    )
    assert code == 3
    assert "matrix JSON" in err and len(err) < 200


@pytest.mark.parametrize("field, n", [("GF(2)", 9), ("GF(11)", 2)], ids=["n9", "q11"])
def test_equivalence_size_cap_exit_2_before_minors(tmp_path, capsys, monkeypatch, field, n):
    from skewcyclic import linalg

    calls = []
    for name in ("poly_det", "bareiss"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: calls.append(name))
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps({"rows": 1, "cols": n, "entries": [["1"] + ["z"] * (n - 1)]}))
    code, out, err = run(
        capsys, "equivalence", "--field", field, "--matrix-a", str(pa), "--matrix-b", str(pa)
    )
    assert (code, out, calls) == (2, "", [])
    assert "n <= 8 and q <= 9 required" in err and len(err) < 200


def test_equivalence_not_right_invertible_exit_4(tmp_path, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1", "z"]]}))
    pb.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1+z", "1+z"]]}))
    code, out, err = run(
        capsys, "equivalence", "--field", "GF(2)", "--matrix-a", str(pa), "--matrix-b", str(pb)
    )
    assert (code, out) == (4, "")
    assert "NotRightInvertible" in err and len(err) < 200


def test_verify_paper_fixtures_missing_key_exit_3(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, _, err = run(capsys, "verify-paper", "--fixtures", str(path))
    assert code == 3
    assert "factors" in err


def test_verify_paper_malformed_fixtures_exit_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"minC3": ')
    code, _, err = run(capsys, "verify-paper", "--fixtures", str(path))
    assert code == 3
    assert "broken.json" in err


def test_verify_paper_only_minc3(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "minC3", "--format", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 6
    assert all("minC3" in l for l in lines)


# one corrupted fixture value per comparison kind: (where, wrong value, a
# filter taking in every check of that context, the checks that read it)
_CORRUPTIONS = [
    (("minC3", "distances", 2), 11, "minC3", {"minC3-d3"}),
    (("generator_matrix_F2n7", "entries", 0, 0), "1+z", "F2n7", {"genmat-F2n7"}),
    (("dist_F2n7", "params"), [7, 3, 5], "F2n7", {"dist-F2n7"}),
    (("automorphisms", "F2n7", "count"), 17, "F2n7", {"aut-F2n7"}),
    (("F8n7", "params_each"), [7, 1, 3], "F8n7", {"F8n7-g1", "F8n7-g2"}),
    (("F8n7", "sum_forney"), [1, 3], "F8n7", {"F8n7-sum"}),
    (("F8n7", "sum_matrix", 0, 0), "1+z", "F8n7", {"F8n7-sum"}),
]


def test_verify_paper_corrupted_fixture(tmp_path, capsys):
    """A wrong fixture value fails exactly the checks that read it, exit 1;
    the other checks of its context still pass."""
    for (*where, last), value, only, failing in _CORRUPTIONS:
        fixtures = load_default_fixtures()
        node = fixtures
        for key in where:
            node = node[key]
        node[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fixtures))
        code, out, _ = run(capsys, "verify-paper", "--only", only, "--fixtures", str(path))
        rows = json.loads(out)
        assert code == 1, (where, last)
        assert {r["name"] for r in rows if not r["ok"]} == failing, (where, last)
        assert len(rows) > len(failing), (where, last)


def test_verify_paper_aut_compares_the_automorphisms(monkeypatch, capsys):
    """aut-* compares the sets of sigma(x) of both enumerations, not only
    their sizes: a brute force that repeats one automorphism fails it."""
    from skewcyclic import verify

    brute = verify.enumerate_automorphisms_bruteforce
    monkeypatch.setattr(
        verify, "enumerate_automorphisms_bruteforce", lambda ctx: brute(ctx)[:1] * len(brute(ctx))
    )
    code, out, _ = run(capsys, "verify-paper", "--only", "aut-F4n3")
    assert code == 1
    assert json.loads(out)[0]["ok"] is False


def test_verify_paper_json_all(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "bounds")
    assert code == 0
    data = json.loads(out)
    assert data == [{"name": "bounds", "ok": True, "detail": "all four bound values match"}]


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("skewcyclic")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "bounds", "--n", "3", "--k", "1", "--delta", "1", "--m", "1", "--q", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["singleton"] == 6


_COMMAND_NAMES = ("factor", "automorphisms", "build", "distance", "bounds", "equivalence", "verify-paper")
_BOUNDS = ["--n", "3", "--k", "1", "--delta", "1", "--m", "1", "--q", "4"]

# every class of argv that argparse treats differently: no command, the
# top-level help and its abbreviation, unknown and miscased commands, a
# command only after another token, each command's help, missing and bad
# values, trailing extras, abbreviated and `=`-joined options, and a
# command name as an option's value
_DIFFERENTIAL_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["nope"],
    ["Build"],
    ["nope", "build"],
    ["--"],
    ["--", "bounds", *_BOUNDS],
    ["-h", "build"],
    ["--format", "json"],
    *([name, "-h"] for name in _COMMAND_NAMES),
    ["build"],
    ["bounds", "--n", "3"],
    ["factor", "--field", "GF(2)", "--n", "7"],
    ["factor", "--field", "GF(2)", "--n", "7", "--format", "xml"],
    ["factor", "--field", "GF(2)", "--n", "x"],
    ["automorphisms", "--field", "GF(2)", "--n", "7", "--sigma", "x^5", "--format", "table"],
    ["build", "--recipe", "f", "extra"],
    ["build", "--recipe", "f", "--with-dist"],
    ["build", "--recipe", "factor"],
    ["build", "--recipe", "f", "--field=GF(2)", "--n", "7", "--sigma", "x^3", "--state-cap", "9"],
    ["distance", "--recipe", "f", "--with-distance"],
    ["bounds", *_BOUNDS],
    ["bounds", *_BOUNDS, "build"],
    ["equivalence", "--field", "GF(2)", "--matrix-a", "a", "--matrix-b", "b"],
    ["verify-paper", "--on", "minC3"],
    ["verify-paper", "--fixtures", "f", "-h"],
]


def _parsed(parser, argv, capsys):
    """vars of the namespace, or SystemExit's code; then stdout and stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("columns", ["30", "80", "200"])
@pytest.mark.parametrize("argv", _DIFFERENTIAL_ARGV, ids=" ".join)
def test_parser_matches_full_parser(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _parsed(full_cli_parser(), list(argv), capsys)
    assert _parsed(cli._parser(list(argv)), list(argv), capsys) == expected


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["skewcyclic", "bounds", *_BOUNDS])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["singleton"] == 6


def test_automorphisms_empty_sigma_exit_3(capsys):
    code, out, err = run(capsys, "automorphisms", "--field", "GF(2)", "--n", "7", "--sigma", "")
    assert (code, out) == (3, "")
    assert err == "parse error: no terms in ''\n"
