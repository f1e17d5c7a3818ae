"""Every command of the construct matrix keeps its exit code and bytes.

``matrix.py`` lists the commands and rebuilds ``matrix.json``.
"""

from matrix import KNOWN_DEFECTS, compute, load, moved


def test_no_command_moved():
    changed = moved(load(), compute())
    assert not changed, f"{len(changed)} commands moved:\n" + "\n".join(changed)


def test_known_defects_exit_4():
    matrix = load()
    failing = [c for c, (code, _) in matrix.items() if code == 4 and c.startswith("construct")]
    assert sorted(failing) == sorted(KNOWN_DEFECTS)
