"""``tools/reach.py``: executable lines come from the compiled code objects,
and the line counter records only files under its prefix."""

import importlib.util
import sys
from pathlib import Path

import pytest

# The tool reads ``co_lines()`` and ``threading.gettrace()`` (Python 3.10+).
pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="tools/reach.py needs Python 3.10+"
)

REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_counter_sees_executed_lines_under_its_prefix_only(tmp_path):
    reach = load_reach()
    inside = write(
        tmp_path / "pkg" / "mod.py",
        "def f(x):\n    if x:\n        return 1\n    return 2\n",
    )
    outside = write(tmp_path / "other.py", "def g():\n    return 3\n")
    namespace = {}
    with reach.LineCounter(tmp_path / "pkg") as counter:
        for path in (inside, outside):
            exec(compile(path.read_text(), str(path), "exec"), namespace)
        assert namespace["f"](True) == 1
        assert namespace["g"]() == 3
    assert reach.executable_lines(inside) == {1, 2, 3, 4}
    assert dict(counter.hits) == {str(inside): {1, 2, 3}}


def test_nested_code_objects_count_as_executable(tmp_path):
    reach = load_reach()
    path = write(
        tmp_path / "mod.py",
        '"""doc"""\n\nclass C:\n    def m(self):\n        return [i for i in ()]\n',
    )
    assert reach.executable_lines(path) == {1, 3, 4, 5}
