"""Byte pins of the CLI: stdout, stderr and exit code of one invocation of
each command, in both formats.  A table's stdout is pinned as text, a JSON
stdout by its SHA-256; stderr is pinned as text.  The inputs are README's
code.json and its A/B equivalence pair, variants of them, and the golden
fixtures with one distance corrupted."""

import copy
import hashlib
import json

import pytest

from skewcyclic import cli
from skewcyclic.verify import load_default_fixtures

# README's code.json
_CODE = {
    "field": "GF(4):y^2+y+1",
    "n": 3,
    "sigma": "x^2",
    "recipe": {"l": 2, "d": 2, "scalars": ["1", "a"]},
    "expected": {"k": 1, "delta": 2, "forney": [2], "distance": 9},
}
# README's A.json and B.json: B is A with its columns permuted and rescaled
_A = {
    "rows": 2,
    "cols": 7,
    "entries": [
        ["1+z+a*z^2", "1+a^6*z+a*z^2", "1+a^5*z+a*z^2", "1+a^4*z+a*z^2",
         "1+a^3*z+a*z^2", "1+a^2*z+a*z^2", "1+a*z+a*z^2"],
        ["1+a*z+a^2*z^2", "a^5+a^5*z+a^5*z^2", "a^3+a^2*z+a*z^2", "a+a^6*z+a^4*z^2",
         "a^6+a^3*z+z^2", "a^4+z+a^3*z^2", "a^2+a^4*z+a^6*z^2"],
    ],
}
_B = {
    "rows": 2,
    "cols": 7,
    "entries": [
        ["a+a^5*z+a^2*z^2", "a^3+a^4*z+a^4*z^2", "a^5+a^5*z+a^6*z^2", "a^2+a^4*z+a^3*z^2",
         "a^6+a^5*z+z^2", "a^4+z+a^5*z^2", "a+a^6*z+a^2*z^2"],
        ["a^2+z+a^5*z^2", "a^5+z+a^2*z^2", "a^5+a^6*z+z^2", "a^6+a^2*z+a^5*z^2",
         "a^4+a^4*z+a^4*z^2", "a^3+z+a^4*z^2", "a^4+a^3*z+a^2*z^2"],
    ],
}


def _inputs():
    """File name -> JSON content of every input the pinned commands read."""
    wrong = dict(_CODE, expected={"k": 2, "delta": 2, "forney": [1], "distance": 7})
    plain = {key: value for key, value in _CODE.items() if key != "expected"}
    other = copy.deepcopy(_B)
    other["entries"][1][6] = "a^4+a^3*z+a^3*z^2"  # one coefficient off
    fixtures = load_default_fixtures()
    fixtures["minC3"]["distances"][2] = 11
    return {
        "code.json": _CODE, "wrong.json": wrong, "plain.json": plain,
        "A.json": _A, "B.json": _B, "C.json": other, "bad.json": fixtures,
    }


_ARGV = {
    "build": "build --recipe code.json",
    "build-with-distance": "build --recipe code.json --with-distance",
    "build-no-expected": "build --recipe plain.json",
    "build-mismatch": "build --recipe wrong.json",
    "distance": "distance --recipe code.json",
    "distance-mismatch": "distance --recipe wrong.json",
    "bounds": "bounds --n 7 --k 2 --delta 4 --m 2 --q 8",
    "equivalent": "equivalence --field GF(8):y^3+y+1 --matrix-a A.json --matrix-b B.json",
    "inequivalent": "equivalence --field GF(8):y^3+y+1 --matrix-a A.json --matrix-b C.json",
    "factor": "factor --field GF(4):y^2+y+1 --n 3",
    "automorphism": "automorphisms --field GF(2) --n 7 --sigma x^5",
    "verify-minC3": "verify-paper --only minC3",
    "verify-no-match": "verify-paper --only no-such-check",
    "verify-corrupted": "verify-paper --only minC3 --fixtures bad.json",
}

_BUILD_TABLE = """\
code over GF(4):y^2+y+1, n = 3, sigma = x^2
parameters (n,k,delta) = (3,1,2)
forney indices: [2]
generator polynomial: 1+a^2*x+a*x^2 + z*(1+a*x+a^2*x^2) + z^2*(a+x+a^2*x^2)
generator matrix:
  [1+z+a*z^2, a^2+a*z+z^2, a+a^2*z+a^2*z^2]
"""
_BUILD_DISTANCE = "distance 9 (singleton 9, griesmer 9, attains singleton)\n"
_DISTANCE_TABLE = """\
(3,1,2) code
free distance  9
singleton      9
griesmer       9
attains        singleton
witness        ['1+z+a*z^2', 'a^2+a*z+z^2', 'a+a^2*z+a^2*z^2']
"""
_MISMATCH = (
    "expected-mismatch: k = 1, expected 2\n"
    "expected-mismatch: forney = [2], expected [1]\n"
    "expected-mismatch: distance = 9, expected 7\n"
)
_BUILD_JSON = "981bb2ba399c5cd4f6123464f4a9489e24f8a7d846d673af45399fa1e619a8ec"
_DISTANCE_JSON = "34636746aabf96fe9113d8d0cd63b4d521b51e783971244c791624f658a7f34c"
_MINC3 = "".join(
    f"PASS minC3-d{i} - matrix and distance {d} match\n"
    for i, d in enumerate((6, 9, 12, 14, 16, 18), start=1)
)

# (case, format) -> (exit code, stdout text or SHA-256 of a JSON stdout, stderr)
_PINS = {
    ("build", "json"): (0, _BUILD_JSON, ""),
    ("build", "table"): (0, _BUILD_TABLE + _BUILD_DISTANCE, ""),
    ("build-with-distance", "json"): (0, _BUILD_JSON, ""),
    ("build-with-distance", "table"): (0, _BUILD_TABLE + _BUILD_DISTANCE, ""),
    ("build-no-expected", "json"): (0, "6b3ee43772594cda37bb3088b723765b3b3ecbf9e3b12bf409256b23979f30e6", ""),
    ("build-no-expected", "table"): (0, _BUILD_TABLE, ""),
    ("build-mismatch", "json"): (1, _BUILD_JSON, _MISMATCH),
    ("build-mismatch", "table"): (1, _BUILD_TABLE + _BUILD_DISTANCE, _MISMATCH),
    ("distance", "json"): (0, _DISTANCE_JSON, ""),
    ("distance", "table"): (0, _DISTANCE_TABLE, ""),
    ("distance-mismatch", "json"): (1, _DISTANCE_JSON, _MISMATCH),
    ("distance-mismatch", "table"): (1, _DISTANCE_TABLE, _MISMATCH),
    ("bounds", "json"): (0, "d7de45455b02e2311c22d33007971e2f3e0ab14f84bab8589b328062fa9972f9", ""),
    ("bounds", "table"): (
        0,
        "(n,k,delta) = (7,2,4), m = 2, q = 8\nsingleton bound  20\ngriesmer bound   18\n",
        "",
    ),
    ("equivalent", "json"): (0, "0243acba66c0e52c3af457fb0b29c46ca04a10d4ad7bbcbaf134ff2ecfd0a5f3", ""),
    ("equivalent", "table"): (
        0,
        "strongly equivalent: column permutation [2, 4, 6, 0, 5, 3, 1], "
        "scaling ['a^5', 'a^4', 'a^2', 'a^2', 'a^6', 'a', '1']\n",
        "",
    ),
    ("inequivalent", "json"): (0, "da1524430fc03f16643a6c7e5735bfea9705277bd03afea6fdc0d0a21e2857c4", ""),
    ("inequivalent", "table"): (0, "not strongly equivalent\n", ""),
    ("factor", "json"): (0, "ee07c3d0375802cacc5b72ecb0d606633b399989bff44fa7d68d71f8d3e2d88b", ""),
    ("factor", "table"): (
        0,
        "x^3 - 1 over GF(4):1+y+y^2\n"
        "degree classes: [[1, 2, 3]]\n"
        "  pi_1 = 1+x  (deg 1)\n"
        "    eps_1 = 1+x+x^2\n"
        "  pi_2 = a+x  (deg 1)\n"
        "    eps_2 = 1+a^2*x+a*x^2\n"
        "  pi_3 = a^2+x  (deg 1)\n"
        "    eps_3 = 1+a*x+a^2*x^2\n",
        "",
    ),
    ("automorphism", "json"): (0, "4f619e32782364ae3d1816ef9861feb5379e7b57e32ca1e86e87494f9d4a6371", ""),
    ("automorphism", "table"): (
        0,
        "18 automorphisms of A = GF(2)[x]/(x^7-1)\n"
        "  x -> x^5" + " " * 38 + "(1)(2,3)" + " " * 13 + "o_1=1, o_2=2, o_3=2\n",
        "",
    ),
    ("verify-minC3", "json"): (0, "c53ad45574a3aac984e977c22d5f820dd4398a8098a68119173ecafde1ca684b", ""),
    ("verify-minC3", "table"): (0, _MINC3 + "6/6 checks passed\n", ""),
    ("verify-no-match", "json"): (1, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", "no checks matched the filter\n"),
    ("verify-no-match", "table"): (1, "0/0 checks passed\n", "no checks matched the filter\n"),
    ("verify-corrupted", "json"): (1, "6d7c77ff38d52d086600228fdf03140fb42a69f58582579021b44cedb4d24fae", ""),
    ("verify-corrupted", "table"): (
        1,
        _MINC3.replace(
            "PASS minC3-d3 - matrix and distance 12 match",
            "FAIL minC3-d3 - distance mismatch: got 12, want 11",
        )
        + "5/6 checks passed\n",
        "",
    ),
}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins")
    for name, content in _inputs().items():
        (path / name).write_text(json.dumps(content))
    return path


@pytest.mark.parametrize("case, fmt", sorted(_PINS), ids=[f"{c}-{f}" for c, f in sorted(_PINS)])
def test_cli_output_pinned(inputs_dir, monkeypatch, capsys, case, fmt):
    want_code, want_out, want_err = _PINS[case, fmt]
    monkeypatch.chdir(inputs_dir)
    code = cli.main(_ARGV[case].split() + ["--format", fmt])
    out, err = capsys.readouterr()
    if fmt == "json":
        json.loads(out)
        out = hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == (want_code, want_out, want_err)
