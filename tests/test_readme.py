"""The README's examples run as printed: the library quick tour prints what
its comments say, the GF(8) descriptor builds with the distance it
expects, and the strong-equivalence example prints the line under it."""

import contextlib
import io
import json
import pathlib
import re
import shlex

from skewcyclic import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first fenced `lang` block after `heading`."""
    after = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_library_quick_tour_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library quick tour", "python"), {})
    assert out.getvalue().splitlines() == ["(3, 1, 2) (2,)", "9"]


def test_descriptor_file_builds_with_distance(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(_block("### Descriptor files", "json"))
    code = cli.main(["build", "--recipe", str(path), "--with-distance"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["distance"]["distance"] == 18


def test_equivalence_example_prints_its_comment(tmp_path, monkeypatch, capsys):
    """The A.json and B.json heredocs of the CLI block, then the
    `skewcyclic equivalence` line after them, run from a scratch directory."""
    cli_block = _block("## CLI", "sh")
    for name, body in re.findall(r"cat > ([AB]\.json) <<'EOF'\n(.*?)EOF\n", cli_block, re.S):
        (tmp_path / name).write_text(body)
    command, expected = re.search(r"^skewcyclic (equivalence .*)\n# (.*)$", cli_block, re.M).groups()
    monkeypatch.chdir(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A.json", "B.json"]
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines() == [expected]
