"""Source hygiene of the package, checked with the standard library only."""

import ast
import importlib
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewcyclic"


def _imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every name the module reads, counting names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for sub in ast.walk(note) if note is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_no_unused_imports():
    """No module of the package but __init__ (which re-exports) imports a
    name it never uses."""
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(sources) > 5, PACKAGE
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_assert_in_package():
    """No module of the package holds an assert statement, so running under
    python -O, which strips them, cannot change what the package checks."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, PACKAGE
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements:\n" + "\n".join(found)


def _calls_in_functions(tree, names):
    """(innermost enclosing function or None, name, line) for every call of
    a function or method named in `names`."""

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in names:
                    yield func, name, child.lineno
            yield from visit(child, func)

    return visit(tree, None)


def test_one_procedure_decides_right_invertibility():
    """No module of the package calls smith_form, and k_minors is called
    only where the minors are the answer: from complexity (their largest
    degree) and strong_equivalence (its permutation key).  Right
    invertibility, right inverses and parity checks all come from the one
    column reduction."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, PACKAGE
    calls = [
        (path.name, func, name, line)
        for path in sources
        for func, name, line in _calls_in_functions(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
            {"smith_form", "k_minors"},
        )
    ]
    smith = [c for c in calls if c[2] == "smith_form"]
    assert not smith, f"smith_form called: {smith}"
    callers = {func for _, func, name, _ in calls if name == "k_minors"}
    assert callers == {"complexity", "strong_equivalence"}, calls


def test_unit_series_on_code_lists_with_one_twist_helper():
    """SkewPoly._series_inverse builds no Poly (no as_poly, no Poly call).
    It and SkewPoly.__mul__ draw sigma^l of their coefficients from
    skew._twists, the only place in skew.py that applies sigma to a code
    list (accumulate_rows over sigma's matrix)."""
    path = PACKAGE / "skew.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = list(_calls_in_functions(tree, {"as_poly", "Poly", "_twists", "accumulate_rows"}))
    series = {name for func, name, _ in calls if func == "_series_inverse"}
    assert series == {"_twists"}, calls
    assert {func for func, name, _ in calls if name == "_twists"} == {"__mul__", "_series_inverse"}
    assert {func for func, name, _ in calls if name == "accumulate_rows"} == {"_twists"}


def test_automorphisms_reference_no_linalg():
    """Automorphism validation needs no rank: the permuted primitive
    idempotents imply bijectivity, so automorphisms.py neither imports nor
    names linalg."""
    path = PACKAGE / "automorphisms.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "linalg")
        or (isinstance(node, ast.Attribute) and node.attr == "linalg")
        or (isinstance(node, ast.alias) and "linalg" in node.name.split("."))
        or (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."))
    ]
    assert not found, f"linalg referenced at lines {found}"


def _method_calls(path, cls):
    """{method name: names it calls} for the methods of class `cls`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    return {
        method.name: {
            call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            for call in ast.walk(method)
            if isinstance(call, ast.Call)
        }
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    }


def test_units_of_a_by_one_euclid():
    """RingContext.is_unit and RingContext.inv, and the unit series of the
    skew ring, reach poly_ext_gcd through one helper and never through the
    CRT residues; only that helper and the idempotent set-up call it."""
    ring = _method_calls(PACKAGE / "ring.py", "RingContext")
    callers = {m for m, names in ring.items() if "poly_ext_gcd" in names}
    helpers = callers - {"__init__"}
    assert len(helpers) == 1, callers
    (helper,) = helpers
    skew = _method_calls(PACKAGE / "skew.py", "SkewPoly")
    for calls in (ring["is_unit"], ring["inv"], skew["_series_inverse"]):
        assert helper in calls, calls
        assert not {"poly_ext_gcd", "crt_forward", "inv"} & calls, calls


def test_cli_import_leaves_heavy_stdlib_unloaded():
    """Importing the CLI loads none of dataclasses, importlib.resources or
    what they pull in.  The interpreter starts without `site` (-S), and only
    the modules it did not hold before the import count."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import skewcyclic.cli; print(*sorted(set(sys.modules) - before))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(res.stdout.split())
    assert "skewcyclic.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources"}
    assert not heavy & added, sorted(heavy & added)


def test_self_checks_are_the_listed_ones():
    """Every `raise AssertionError(...)` left in the package, by innermost
    function.  Each re-checks a result the code should already guarantee,
    so each is either cheap or has no proof written down.  The unit
    inverse, the column reduction's right inverse and parity check, the
    equivalence witness and the idempotent generator are proven in their
    docstrings and checked in the tests instead; a self-check added
    anywhere fails here."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, PACKAGE
    found = sorted(
        f"{path.stem}.{func}"
        for path in sources
        for func, _, _ in _calls_in_functions(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), {"AssertionError"}
        )
    )
    assert found == [
        "automorphisms._roots_in_component",
        "builder.build_minimal_code",
        "builder.build_minimal_code",
        "builder.build_unit_for_profile",
        "builder.build_unit_for_profile",
        "builder.orthogonal_sum",
        "distance.free_distance",
        "distance.free_distance",
        "distance.free_distance",
        "fields.factor_xn_minus_1",
        "skew.decompose_into_elementary",
    ], found


def test_traced_names_resolve():
    """Every LAYERS entry of perfbench/tracer.py names a function of its
    module, or an attribute in its class's own __dict__, as Tracer._build
    looks them up; a removed or renamed traced name fails here, not only in
    a traced benchmark run.  The file is read, not imported."""
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    assert len(layers) > 10, layers
    missing = []
    for module, attr_path, _ in layers:
        mod = importlib.import_module(f"skewcyclic.{module}")
        if "." in attr_path:
            cls_name, attr = attr_path.split(".")
            found = attr in getattr(getattr(mod, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(mod, attr_path, None))
        if not found:
            missing.append(f"{module}.{attr_path}")
    assert not missing, "unresolved traced names:\n" + "\n".join(missing)
