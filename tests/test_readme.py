"""The README's examples run as printed: the library quick tour prints what
its comments say, and the GF(8) descriptor builds with the distance it
expects."""

import contextlib
import io
import json
import pathlib
import re

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
