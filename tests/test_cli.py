"""Command-line surface: documents, determinism, exit codes, rendering."""

import json
import math

import pytest

from poncelet import SceneDocument, chain_values, render_svg, scene_from_rp1
from poncelet.cli import main
from poncelet.errors import DocumentError

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
