"""Command-line surface: documents, determinism, exit codes, rendering."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poncelet
from poncelet import (
    ProjMap,
    SceneDocument,
    chain_values,
    concentric_scene,
    errors,
    render_svg,
    scene_from_rp1,
    transformed_scene,
)
from poncelet.cli import main
from poncelet.errors import DocumentError

DATA = Path(__file__).with_name("data")
S649 = math.sqrt(649)
GOLDEN = [-1, 0, 1, 4, 5]


def run(args, capsys=None):
    code = main(args)
    return code


class TestConstructCommand:
    @pytest.mark.parametrize("kind,n", [("6", 6), ("7", 7), ("8", 8), ("9", 9)])
    def test_construct_roundtrip_verify(self, kind, n, tmp_path, capsys):
        out = tmp_path / "scene.json"
        assert run(["construct", kind, "--seed", "11", "--out", str(out)]) == 0
        assert run(["verify", "--in", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["n"] == n

    def test_double_from_file(self, tmp_path, capsys):
        pent = tmp_path / "pent.json"
        dbl = tmp_path / "dbl.json"
        # seeded construct samples a pentagon scene and doubles it
        assert run(["construct", "double", "--seed", "4", "--out", str(pent)]) == 0
        capsys.readouterr()
        doc = SceneDocument.from_json(pent.read_text())
        assert doc.n == 10
        # doubling an existing document
        assert run(["construct", "double", "--in", str(pent), "--out", str(dbl)]) == 0
        doc2 = SceneDocument.from_json(dbl.read_text())
        assert doc2.n == 20

    def test_determinism_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["construct", "7", "--seed", "42", "--out", str(a), "--svg", str(sa)]) == 0
        assert run(["construct", "7", "--seed", "42", "--out", str(b), "--svg", str(sb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sa.read_bytes() == sb.read_bytes()

    def test_chain_closes_into_configuration(self, tmp_path):
        hept = tmp_path / "hept.json"
        cfg = tmp_path / "cfg.json"
        assert run(["construct", "7", "--seed", "3", "--out", str(hept)]) == 0
        assert run(["construct", "chain", "--in", str(hept), "--steps", "8", "--out", str(cfg)]) == 0
        doc = SceneDocument.from_json(cfg.read_text())
        assert doc.n == 7
        assert doc.configuration is not None
        assert len(doc.configuration.points) == 21

    def test_hexagon_chain_closes_at_6_without_configuration(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        assert run(["construct", "chain", "--in", str(DATA / "hexagon.json"), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 6 and "configuration" not in doc
        assert run(["verify", "--in", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_chain_seed_with_coincident_points_exits_3(self, tmp_path, capsys):
        doc = json.loads((DATA / "hexagon.json").read_text())
        doc["scene"]["vertices"][1] = doc["scene"]["vertices"][0]
        bad = tmp_path / "coincident.json"
        bad.write_text(json.dumps(doc))
        assert run(["construct", "chain", "--in", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_construct_and_verify_share_the_n4_gate(self, tmp_path, capsys, monkeypatch):
        from types import SimpleNamespace

        from poncelet import cli

        monkeypatch.setattr(cli, "verify_n4", lambda cfg: SimpleNamespace(passed=False))
        out = tmp_path / "chain.json"
        assert run(["construct", "chain", "--in", str(DATA / "heptagon.json"), "--out", str(out)]) == 4
        assert json.loads(out.read_text())["residuals"]["n4_pass"] == 0.0
        assert "n4_pass" in capsys.readouterr().err
        assert run(["verify", "--in", str(out)]) == 4

    def test_construct_and_verify_share_the_pass_limit(self, tmp_path, capsys):
        # this nine-gon closes to 4.5e-7: above the one pass limit, 1e-7
        out = tmp_path / "ninegon.json"
        argv = ["construct", "9", "--seed", "824892", "--branch", "0", "--out", str(out)]
        assert run(argv) == 4
        assert "closure_p" in capsys.readouterr().err
        closure_p = json.loads(out.read_text())["residuals"]["closure_p"]
        assert 1e-7 < closure_p <= 1e-6
        assert run(["verify", "--in", str(out)]) == 4
        assert json.loads(capsys.readouterr().out)["checks"]["closure_p"] == closure_p

    @pytest.mark.parametrize("argv", [
        ["chain", "--steps", "8"],
        ["construct", "7", "--tolerance", "1e-6"],
        ["construct", "7", "--precision", "double"],
        ["construct", "chain", "--steps", "0"],
        ["construct", "chain", "--steps", "-3"],
        ["verify", "--in", "x.json", "--n", "0"],
    ])
    def test_removed_or_invalid_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,option,value", [
        ("6", "--branch", "1"), ("6", "--in", "x.json"), ("6", "--steps", "5"),
        ("7", "--in", "x.json"), ("7", "--steps", "5"),
        ("8", "--in", "x.json"), ("8", "--steps", "5"),
        ("9", "--in", "x.json"), ("9", "--steps", "5"),
        ("double", "--branch", "0"), ("double", "--steps", "12"),
        ("chain", "--branch", "1"),
    ])
    def test_options_a_kind_does_not_read_are_rejected(self, kind, option, value, capsys):
        assert run(["construct", kind, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: construct {kind} does not read {option}\n"

    def test_every_unread_option_is_named(self, capsys):
        assert run(["construct", "7", "--in", "/nonexistent.json", "--steps", "5"]) == 2
        assert capsys.readouterr().err == "error: construct 7 does not read --in, --steps\n"

    @pytest.mark.parametrize("kind", ["double", "chain"])
    def test_input_document_is_tried_once(self, kind, tmp_path, capsys, monkeypatch):
        from poncelet import cli
        from poncelet.errors import DegenerateInput

        hept = tmp_path / "hept.json"
        assert run(["construct", "7", "--seed", "3", "--out", str(hept)]) == 0
        calls = []

        def build(rng, args):
            calls.append(args.infile)
            raise DegenerateInput("degenerate on purpose")

        spec = cli.CONSTRUCT_KINDS[kind]
        monkeypatch.setitem(cli.CONSTRUCT_KINDS, kind, spec._replace(build=build))
        capsys.readouterr()
        assert run(["construct", kind, "--in", str(hept)]) == 2
        assert calls == [str(hept)]
        assert capsys.readouterr().err == "error: degenerate on purpose\n"


def _geometry_errors():
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.GeometryError)]


# scene mutations of a fixture document, each run through every command that
# reads a document
MUTATIONS = {
    "inner_is_outer": lambda s: s.__setitem__("inner", s["outer"]),
    "vertex_on_touch_point": lambda s: s["vertices"].__setitem__(1, s["touch_points"][0]),
    "duplicated_vertex": lambda s: s["vertices"].__setitem__(1, s["vertices"][0]),
    "zeroed_coordinate": lambda s: s["vertices"][0].__setitem__(0, [0.0, 0.0]),
}


def mutated(tmp_path, fixture, mutation):
    doc = json.loads((DATA / fixture).read_text())
    MUTATIONS[mutation](doc["scene"])
    path = tmp_path / f"{mutation}.json"
    path.write_text(json.dumps(doc))
    return path


class TestErrorContract:
    """Every library exception leaves main as one error line and its exit code."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("fixture", sorted(p.name for p in DATA.glob("*.json")))
    def test_mutated_documents_exit_with_a_code(self, fixture, mutation, tmp_path, capsys):
        path = str(mutated(tmp_path, fixture, mutation))
        for argv in (["construct", "double", "--in", path, "--out", str(tmp_path / "d.json")],
                     ["construct", "chain", "--in", path, "--out", str(tmp_path / "c.json")],
                     ["verify", "--in", path],
                     ["render", "--in", path, "--out", str(tmp_path / "r.svg")]):
            assert run(argv) in (0, 2, 3, 4), argv
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.count("error:") <= 1, argv

    @pytest.mark.parametrize("k,touches,n,message", [
        (1, 1, None, "scene has no edge"),  # verify once died in max() of no edges
        (2, 0, 2, "scene has 0 touch points for 2 edges"),  # doubling once raised IndexError
        (4, 4, None, "scene has 4 touch points for 3 edges"),
    ])
    def test_scene_needs_one_touch_point_per_edge(self, k, touches, n, message, tmp_path, capsys):
        doc = json.loads((DATA / "hexagon.json").read_text())
        del doc["n"]
        scene = doc["scene"]
        scene["vertices"], scene["touch_points"] = scene["vertices"][:k], scene["touch_points"][:touches]
        scene["n"] = n
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(doc))
        for command in (["verify"], ["construct", "double"], ["construct", "chain"], ["render"]):
            assert run([*command, "--in", str(path)]) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n", command

    def test_doubling_proportional_conics_exits_3(self, tmp_path, capsys):
        path = mutated(tmp_path, "heptagon.json", "inner_is_outer")
        assert run(["construct", "double", "--in", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: outer and inner conics are proportional\n"

    @pytest.mark.parametrize("cls", _geometry_errors(), ids=lambda cls: cls.__name__)
    def test_each_error_class_has_its_exit_code(self, cls, capsys, monkeypatch):
        from poncelet import cli

        def build(rng, args):
            raise cls("raised on purpose")

        spec = cli.CONSTRUCT_KINDS["double"]
        monkeypatch.setitem(cli.CONSTRUCT_KINDS, "double", spec._replace(build=build))
        if issubclass(cls, (errors.DocumentError, errors.DegenerateInput)):
            expected = 2
        elif issubclass(cls, errors.InseparableRoots):
            expected = 4
        else:
            expected = 3
        assert run(["construct", "double", "--in", str(DATA / "heptagon.json")]) == expected
        assert capsys.readouterr().err == "error: raised on purpose\n"

    def test_no_traceback_from_a_fresh_process(self, tmp_path):
        path = mutated(tmp_path, "hexagon.json", "inner_is_outer")
        env = dict(os.environ, PYTHONPATH=str(Path(poncelet.__file__).parent.parent))
        res = subprocess.run(
            [sys.executable, "-m", "poncelet.cli", "construct", "double", "--in", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert res.stderr.count("error:") == 1


class TestConstructVerifyAgreement:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["6", "7", "8", "9", "double", "chain"])
    def test_verify_reproduces_construct(self, kind, seed, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = run(["construct", kind, "--seed", str(seed), "--out", str(out)])
        stored = json.loads(out.read_text())["residuals"]
        capsys.readouterr()
        assert run(["verify", "--in", str(out)]) == code
        checks = json.loads(capsys.readouterr().out)["checks"]
        for name, value in stored.items():
            assert checks[name].hex() == value.hex(), name


class TestVerifyCommand:
    def golden_octagon_doc(self, tmp_path):
        x6 = (209 - 5 * S649) / 66
        vals = chain_values(GOLDEN, x6, 8)
        scene = scene_from_rp1(vals[:6])
        # extend to the full octagon
        from poncelet import PonceletScene
        from poncelet.chains import canonical_chart

        chart = canonical_chart()
        verts = [chart.lift(v) for v in vals]
        from poncelet import polygon_scene

        full = polygon_scene(verts, 8)
        doc = SceneDocument(kind="octagon", n=8)
        doc.scene = full
        path = tmp_path / "golden8.json"
        path.write_text(doc.to_json())
        return path

    def test_golden_octagon_passes(self, tmp_path, capsys):
        path = self.golden_octagon_doc(tmp_path)
        assert run(["verify", "--in", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert report["checks"]["octagon_point7_gap"] < 1e-9

    def test_perturbed_octagon_fails_with_residual(self, tmp_path, capsys):
        path = self.golden_octagon_doc(tmp_path)
        data = json.loads(path.read_text())
        data["scene"]["vertices"][6][0][0] += 3e-7  # nudge point 7 slightly
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["verify", "--in", str(bad)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]
        assert report["checks"]["octagon_point7_gap"] > 1e-7

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"format": "poncelet-scene", "version": 1,,,')
        assert run(["verify", "--in", str(bad)]) == 2

    def test_wrong_format_exit_2(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        assert run(["verify", "--in", str(bad)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["verify", "--in", str(tmp_path / "nope.json")]) == 2

    def test_chain_point_off_the_conic_fails(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        assert run(["construct", "chain", "--seed", "0", "--out", str(chain)]) == 0
        capsys.readouterr()
        assert run(["verify", "--in", str(chain)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["checks"]["max_on_conic"] < 1e-9
        data = json.loads(chain.read_text())
        # move point 7 radially 0.01 off the unit circle A
        for coord in data["trace"]["elements"]["7"]["coords"][:2]:
            coord[0] *= 1.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["verify", "--in", str(bad)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"] and report["checks"]["max_on_conic"] > 1e-3

    def test_configuration_document_verifies(self, tmp_path, capsys):
        hept = tmp_path / "h.json"
        cfg = tmp_path / "c.json"
        run(["construct", "7", "--seed", "3", "--out", str(hept)])
        run(["construct", "chain", "--in", str(hept), "--steps", "8", "--out", str(cfg)])
        capsys.readouterr()
        assert run(["verify", "--in", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["n4_pass"] == 1.0


class TestCountCommand:
    def test_golden_octagon_roots(self, capsys):
        assert run(["count", "--n", "8", "--values=-1,0,1,4,5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 2
        accepted = sorted(r["value"][0] for r in report["roots"] if r["accepted"])
        assert abs(accepted[0] - (209 - 5 * S649) / 66) < 1e-9
        assert abs(accepted[1] - (209 + 5 * S649) / 66) < 1e-9

    def test_table_small_entries(self, capsys):
        assert run(["count", "--n", "6", "--values=-1,0,1,4,5"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1
        assert run(["count", "--n", "10", "--values=-1,0,1,4,5"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 4

    def test_random_inputs_from_seed(self, capsys):
        assert run(["count", "--n", "7", "--seed", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 2

    def test_bad_values_exit_2(self):
        assert run(["count", "--n", "8", "--values=1,2"]) == 2

    @pytest.mark.parametrize("form", [["--values=-1,0,1,4,5"], ["--seed", "3"]])
    def test_inseparable_roots_exit_4(self, form, capsys, monkeypatch):
        from poncelet import roots

        # discs that never separate: every root disc reported overlapping
        monkeypatch.setattr(roots, "_clusters", lambda discs: [list(range(len(discs)))])
        assert run(["count", "--n", "8", *form]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overlap" in captured.err

    @pytest.mark.parametrize("args", [
        ["--n", "5", "--values=-1,0,1,4,5"],
        ["--n", "8", "--values=1,1,2,3,4"],
        ["--n", "5", "--seed", "3"],
    ])
    def test_rejected_inputs_exit_2_without_retries(self, args, capsys, monkeypatch):
        from poncelet import chains

        calls = []
        solve = chains.closure_roots
        monkeypatch.setattr(chains, "closure_roots", lambda *a: calls.append(a) or solve(*a))
        assert run(["count", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "retries" not in err
        assert len(calls) <= 1


class TestRenderCommand:
    def test_heptagon_svg_element_counts(self, tmp_path):
        doc_path = tmp_path / "h.json"
        svg_path = tmp_path / "h.svg"
        assert run(["construct", "7", "--seed", "42", "--out", str(doc_path)]) == 0
        assert run(["render", "--in", str(doc_path), "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.count('class="conic') == 2
        assert svg.count('class="edge"') == 7

    def test_config_svg_counts(self, tmp_path):
        hept = tmp_path / "h.json"
        cfg = tmp_path / "c.json"
        svg_path = tmp_path / "c.svg"
        run(["construct", "7", "--seed", "3", "--out", str(hept)])
        run(["construct", "chain", "--in", str(hept), "--steps", "8", "--out", str(cfg)])
        assert run(["render", "--in", str(cfg), "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.count('class="config-line"') == 21
        assert svg.count('class="config-point"') == 21

    def test_empty_scene_minimal_svg(self):
        doc = SceneDocument(kind="empty")
        svg = render_svg(doc)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_complex_scene_is_listed_in_the_legend(self):
        # a non-real map leaves no real vertex, touch point, edge or conic branch
        s = ProjMap([[1, 0.5j, 0], [0.3j, 1, 0], [0, 0.2j, 1]])
        svg = render_svg(SceneDocument(kind="scene", n=6, scene=transformed_scene(concentric_scene(6), s)))
        notes = [
            "6 complex/infinite vertex element(s) not drawn",
            "6 complex/infinite touch element(s) not drawn",
            "conic outer has no real drawable branch",
            "conic inner has no real drawable branch",
        ] + [f"edge {i} not drawn (complex endpoint)" for i in range(1, 7)]
        assert [line for line in svg.splitlines() if 'class="legend"' in line] == [
            f'<text class="legend" x="8" y="{16 + 14 * i}" font-size="11" fill="#444444">{note}</text>'
            for i, note in enumerate(notes)
        ]
        assert not any(f'class="{cls}' in svg for cls in ("vertex", "touch", "edge", "conic"))

    def test_coordinates_that_round_to_zero_have_no_sign(self):
        from poncelet.svg import _fmt

        assert _fmt(-1e-7) == "0" and _fmt(-0.0) == "0" and _fmt(0.0) == "0"
        assert _fmt(-6e-7) == "-0.000001" and _fmt(-1.25) == "-1.25" and _fmt(720.0) == "720"


class TestDocumentRoundtrip:
    def test_lossless_json(self, tmp_path):
        path = tmp_path / "h.json"
        run(["construct", "8", "--seed", "7", "--out", str(path)])
        text = path.read_text()
        doc = SceneDocument.from_json(text)
        assert doc.to_json() == text

    def test_unknown_version_rejected(self):
        with pytest.raises(DocumentError):
            SceneDocument.from_dict({"format": "poncelet-scene", "version": 99})


# runs each command in one fresh process, then reports the exit codes and
# whether numpy or dataclasses was ever imported
NUMPY_PROBE = """
import json, sys
from poncelet.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def probe_numpy(commands):
    env = dict(os.environ, PYTHONPATH=str(Path(poncelet.__file__).parent.parent))
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestImports:
    def test_document_commands_do_not_import_numpy(self, tmp_path):
        # verify, render and construct chain --in fit no conic and solve no
        # polynomial
        hept = str(tmp_path / "hept.json")
        assert run(["construct", "7", "--seed", "3", "--out", hept]) == 0
        probe = probe_numpy([
            ["verify", "--in", hept],
            ["render", "--in", hept, "--out", str(tmp_path / "scene.svg")],
            ["construct", "chain", "--in", hept, "--steps", "8", "--out", str(tmp_path / "chain.json")],
        ])
        assert probe == {"codes": [0, 0, 0], "numpy": False, "dataclasses": False}

    def test_construct_does_not_import_numpy(self, tmp_path):
        # conic fits, the pencil cubic and the doubling frame are pure Python
        kinds = ["6", "7", "8", "9", "double", "chain"]
        probe = probe_numpy([["construct", k, "--seed", "3", "--out", str(tmp_path / f"{k}.json")]
                             for k in kinds])
        assert probe == {"codes": [0] * len(kinds), "numpy": False, "dataclasses": False}

    def test_count_does_not_import_numpy(self):
        # the closure roots are seeded by Aberth iteration in Python floats
        probe = probe_numpy([["count", "--n", n, *form] for n in ("8", "12")
                             for form in (["--values=-1,0,1,4,5"], ["--seed", "3"])])
        assert probe == {"codes": [0] * 4, "numpy": False, "dataclasses": False}

    def test_no_module_imports_numpy(self):
        # every import statement of the package, wherever it stands
        src = Path(poncelet.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] in ("numpy", "dataclasses") for n in names), path.name
