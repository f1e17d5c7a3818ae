"""Scene documents as CLI input: malformed documents exit 2, never a traceback."""

import contextlib
import copy
import io
import json
import math
from functools import lru_cache

import pytest

from poncelet import SceneDocument
from poncelet.cli import CONSTRUCT_KINDS, main

INPUT_COMMANDS = (["verify"], ["render"], ["construct", "double"], ["construct", "chain"])


def run_quiet(argv):
    """Exit code, stdout and stderr of ``poncelet argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def constructed(kind: str, seed: int = 3) -> str:
    """Document text of ``construct kind --seed seed``."""
    code, out, _ = run_quiet(["construct", kind, "--seed", str(seed)])
    assert code == 0
    return out


def heptagon() -> dict:
    return json.loads(constructed("7"))


def set_first_vertex(value):
    return lambda d: d["scene"]["vertices"].__setitem__(0, value)


MALFORMED = {
    "zero_vertex": set_first_vertex([[0, 0], [0, 0], [0, 0]]),
    "nan_vertex": set_first_vertex([[math.nan, 0], [0, 0], [1, 0]]),
    "single_precision": lambda d: d.__setitem__("precision", "single"),
    "tolerance_not_a_number": lambda d: d.__setitem__("tolerance", "abc"),
    "incidence_names_missing_element": lambda d: d["trace"]["incidences"].append(
        ["incident", "no-such-point", "l"]
    ),
}


@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(case, command, tmp_path):
    doc = heptagon()
    MALFORMED[case](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_quiet([*command, "--in", str(path)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_utf8_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format": "\xff"}')
    assert run_quiet(["verify", "--in", str(path)])[0] == 2


@pytest.mark.parametrize("kind", sorted(CONSTRUCT_KINDS))
def test_constructed_documents_roundtrip(kind):
    # for complex z, z / z can be 1 + (rounding error)j: parsing must not
    # normalize such coordinates a second time
    for seed in range(10):
        text = constructed(kind, seed)
        assert SceneDocument.from_json(text).to_json() == text


@pytest.mark.parametrize("kind", ["6", "7", "8", "9", "double"])
def test_verify_reproduces_construct_residuals(kind, tmp_path):
    path = tmp_path / "doc.json"
    for seed in range(10):
        path.write_text(constructed(kind, seed))
        code, out, _ = run_quiet(["verify", "--in", str(path)])
        assert code == 0
        checks = json.loads(out)["checks"]
        stored = json.loads(path.read_text())["residuals"]
        assert {k: checks[k] for k in stored} == stored


# ---------------------------------------------------------------------------
# fuzzing: random mutations of valid documents


def paths(node, prefix=()):
    """Every path to a value inside a JSON tree."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutate(doc, op, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value if op == "replace" else doc
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "drop":
        del parent[last]
    elif op == "rename":
        target = parent if isinstance(parent, dict) else None
        if target is not None:
            target[f"{last}-renamed"] = target.pop(last)
        elif isinstance(parent[last], str):
            parent[last] = f"{parent[last]}-renamed"
    else:
        parent[last] = value
    return doc


def test_fuzzed_documents_never_escape_the_exit_contract(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = [json.loads(constructed(kind)) for kind in ("7", "8", "chain")]
    odd_values = st.sampled_from([
        math.nan, 0, 0.0, 1e300, -1e300, math.inf, "abc", None, True, [], {}, [0, 0], -1,
        [[0, 0], [0, 0], [0, 0]], [[1e300, 0], [1e-300, 0], [0, 1e300]], ["on_conic", "1", "C"],
    ])

    @st.composite
    def mutated(draw):
        doc = draw(st.sampled_from(bases))
        for _ in range(draw(st.integers(1, 3))):
            path = draw(st.sampled_from(list(paths(doc))))
            op = draw(st.sampled_from(["drop", "replace", "rename"]))
            doc = mutate(doc, op, path, draw(odd_values))
        return doc

    path = tmp_path_factory.mktemp("fuzz") / "doc.json"

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(mutated())
    def check(doc):
        path.write_text(json.dumps(doc))
        for command in (["verify"], ["render"]):
            code, _, err = run_quiet([*command, "--in", str(path)])
            assert code in (0, 2, 3, 4)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1

    check()
