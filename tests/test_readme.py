"""The README's runnable examples run, and print what their comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _example_after(marker: str, language: str = "python") -> str:
    """The first block in language after the first occurrence of marker."""
    section = README.read_text(encoding="utf-8").split(marker, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _check_prints(code: str) -> None:
    expected = [line.rsplit("  # ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_library_example_prints_its_comments():
    _check_prints(_example_after("\n## Library use\n"))


def test_closure_example_prints_its_comments():
    _check_prints(_example_after("`closure_basis(g)` is the affine closure"))


def test_plan_file_example_is_the_golden_nand_plan():
    golden = README.parent / "tests" / "golden" / "nand_plan.json"
    example = _example_after("\n## Plan files\n", "json")
    assert json.loads(example) == json.loads(golden.read_text(encoding="utf-8"))
