"""``tools/reach.py --check``'s rule on a small planted tree: a function
that never ran is flagged unless something outside ``tests/`` names it."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

LIBRARY = '''
def kept():
    return 1


def only_tests():
    return 2


def dead_caller():
    return dead_helper()


def dead_helper():
    return 3
'''


def plant(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def flagged_names(root: Path) -> set[str]:
    """What ``--check`` would flag if no library function ever ran."""
    unreached = reach.library_functions(root / "src" / "repro")
    return {fn.name for fn in reach.flagged(unreached, root=root)}


@pytest.mark.parametrize("reader", reach.READERS)
def test_only_a_read_outside_tests_keeps_a_function(tmp_path, reader):
    plant(tmp_path, {
        "src/repro/lib.py": LIBRARY,
        "tests/test_lib.py": """
            from repro import lib

            def test_all():
                assert lib.kept() + lib.only_tests() + lib.dead_caller()
            """,
        f"{reader}/use_lib.py": "from repro import lib\n\nprint(lib.kept())\n",
    })
    flagged = flagged_names(tmp_path)
    assert "kept" not in flagged  # read from `reader`
    assert "only_tests" in flagged  # read from tests/ alone
    # The fixpoint: a helper only a flagged function calls goes with it.
    assert {"dead_caller", "dead_helper"} <= flagged


def test_a_helper_of_a_kept_function_is_kept(tmp_path):
    plant(tmp_path, {
        "src/repro/lib.py": LIBRARY,
        "examples/use_lib.py": "from repro import lib\n\nprint(lib.dead_caller())\n",
    })
    assert flagged_names(tmp_path) == {"kept", "only_tests"}
