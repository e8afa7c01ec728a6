import json
import time

import pytest

from skewcyclic import cli
from skewcyclic.literals import matrix_from_dict, parse_field
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


@pytest.mark.parametrize("field", ["GF(512)", "GF(65537)", "GF(1024):y^10+y^3+1"])
def test_field_size_cap_exit_2(capsys, field):
    start = time.perf_counter()
    code, _, err = run(capsys, "factor", "--field", field, "--n", "3")
    assert code == 2
    assert "MAX_FIELD_SIZE" in err
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
        {**_GOOD_DESC, "generator": 5},
        {**_GOOD_DESC, "sigma": 7},
        {**_GOOD_DESC, "field": 4},
        {"field": "GF(4):y^2+y+1", "n": 3, "sigma": "x^2", "l": 2, "d": 1, "scalars": ["1"]},
    ],
    ids=[
        "top-level-number", "top-level-string", "recipe-not-object",
        "components-not-list", "components-empty", "scalars-not-list",
        "scalar-not-string", "expected-not-object", "generator-not-string",
        "sigma-not-string", "field-not-string", "flat-recipe",
    ],
)
def test_build_malformed_descriptor_exit_3(tmp_path, capsys, desc):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "build", "--recipe", str(path))
    assert code == 3
    assert err.startswith("parse error:")


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
    """build --with-distance takes exactly the determinants of
    ConvCode.from_reduced on the same generator: the free-distance search
    reads the build's right-invertibility answer instead of taking the
    minors again."""
    from skewcyclic import linalg
    from skewcyclic.convolutional import ConvCode
    from skewcyclic.literals import parse_sigma
    from skewcyclic.ring import RingContext
    from skewcyclic.skew import unit_product

    calls = []
    det = linalg.poly_det

    def counting_det(field, rows):
        calls.append(1)
        return det(field, rows)

    monkeypatch.setattr(linalg, "poly_det", counting_det)
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
    assert built == len(calls) > 0


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


def test_bounds_bad_parameters_exit_2(capsys):
    code, _, err = run(
        capsys, "bounds", "--n", "3", "--k", "3", "--delta", "0", "--m", "0", "--q", "2"
    )
    assert code == 2


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
    ],
    ids=["empty", "entries-not-a-list", "entries-not-strings"],
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
    assert "matrix JSON" in err


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
