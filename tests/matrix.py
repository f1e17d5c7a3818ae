"""The construct matrix: the exit code and sha256 of every command it lists.

    PYTHONPATH=src python tests/matrix.py --write

rebuilds ``tests/matrix.json``; without ``--write`` it prints the commands
whose exit code or bytes differ from the file.  ``test_matrix.py`` does the
same in-process.  The commands are ``construct 6/7/8/9/double/chain`` for
seeds 0..99, the two item-1 seeds, ``verify`` of each document a
construct wrote, ``render`` of each document of seeds 0..9 and ``count
--n 8/12/16`` for seeds 0..9.  A construct's digest is that of its
document, a verify's that of its report, a render's that of its SVG and a
count's that of its report.  A change that moves bytes regenerates the
file, bumps the version and names the moved commands.

``KNOWN_DEFECTS`` exit 4 today, by the program's fault, not the check's:
their closure or on-conic residual is above the pass limit.  They stay in
the matrix so that a fix shows up as a moved exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

MATRIX = Path(__file__).with_name("matrix.json")
KINDS = ("6", "7", "8", "9", "double", "chain")
SEEDS = range(100)
KNOWN_DEFECTS = (
    "construct double --seed 15",
    "construct chain --seed 80",
    "construct double --seed 833820",
    "construct 9 --seed 824892 --branch 0",
)
CONSTRUCTS = tuple(f"construct {kind} --seed {seed}" for kind in KINDS for seed in SEEDS) + KNOWN_DEFECTS[2:]
RENDERED = tuple(f"construct {kind} --seed {seed}" for kind in KINDS for seed in range(10))
COUNTS = tuple(f"count --n {n} --seed {seed}" for n in (8, 12, 16) for seed in range(10))


def _run(argv: list[str]) -> list:
    """[exit code, sha256 of what the command printed]."""
    from poncelet.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(printed.getvalue().encode()).hexdigest()]


def compute() -> dict[str, list]:
    """command -> [exit code, sha256 of its bytes], in ``CONSTRUCTS`` order,
    each construct followed by the verify of its document if it wrote one
    and by its render if it is in ``RENDERED``, then ``COUNTS``."""
    from poncelet.cli import main

    out: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        for command in CONSTRUCTS:
            path.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([*command.split(), "--out", str(path)])
            if not path.exists():
                out[command] = [code, None]
                continue
            out[command] = [code, hashlib.sha256(path.read_bytes()).hexdigest()]
            out[f"verify ({command})"] = _run(["verify", "--in", str(path)])
            if command in RENDERED:
                out[f"render ({command})"] = _run(["render", "--in", str(path)])
    for command in COUNTS:
        out[command] = _run(command.split())
    return out


def moved(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """Each command whose entry differs, with its old and new exit codes."""
    return [
        f"{command}: exit {old.get(command, [None])[0]} -> {new.get(command, [None])[0]}"
        for command in sorted(old.keys() | new.keys(), key=lambda c: (c.split()[0] != "construct", c))
        if old.get(command) != new.get(command)
    ]


def load() -> dict[str, list]:
    return json.loads(MATRIX.read_text())


if __name__ == "__main__":
    matrix = compute()
    if "--write" in sys.argv[1:]:
        MATRIX.write_text(json.dumps(matrix, indent=1) + "\n")
    else:
        print("\n".join(moved(load(), matrix)) or "no command moved")
