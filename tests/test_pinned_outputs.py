"""construct, verify and render bytes, pinned by sha256.

The documents under ``tests/data`` come from ``construct 6``, ``7``, ``8``
and ``9 --seed 3`` and from ``construct double --seed 3 --in`` the document
of ``construct 6 --seed 3`` (``hexagon.json``), as built before 0.1.3.
``verify`` recomputes each polygon's bracket residual through
``moderate_chart`` and ``StereoChart.project``, so the digests hold the
chart transfer to its floating-point bits; the output of a command is a
pure function of its input and the package version.  A change that moves
these digests changes what users get, and needs a version bump.

``construct 6``, ``7``, ``8``, ``9`` and ``double --seed 3`` are pinned as
built at 0.1.3.  Since then their conic fits, pencil cubics and doubling frame
are pure Python instead of LAPACK (SVD, ``numpy.roots``), so their bytes no
longer depend on the LAPACK build and they run without numpy; that
change moved their last bits, while ``verify`` and ``render``, which
fit nothing, kept theirs.  ``construct 7 --branch 1``, ``8 --branch 1``
and ``9 --branch 1`` and ``2`` at seed 3 are pinned as built at 0.1.4, so
every cut the three join/meet constructions can take is held to its bits.

``construct chain --in`` the heptagon and the hexagon are built afresh and
pinned too, with their own ``verify`` and ``render``: that path runs
``join``, ``meet`` and ``config_from_chain_trace``.  The hexagon's chain
closes at period 6 and carries no configuration.  ``verify`` of a chain
document recomputes ``max_on_conic`` from the trace points on the conic A
(since 0.1.2), which is why both chain ``verify`` digests moved then.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import poncelet

DATA = Path(__file__).with_name("data")

# name: (sha256 of verify's stdout, sha256 of render's SVG)
PINNED = {
    "hexagon.json": (
        "8bc47cd68f954c5e14e213eed5c6fe74e11a8cbe77de7119f1e027314cd5d749",
        "4353059aefd6e0f7de34d982cf647cdb44f666aa79ea7eebf885efc2f0da154f",
    ),
    "heptagon.json": (
        "c95ffdc32b63093b4941db338118abf8f3cf9ca8e07602121f1dc656d517bd5f",
        "8a52d5374fae59eb2068c063c419f48c1a31d70e2333833c3e617d5f6e4d4ec9",
    ),
    "octagon.json": (
        "d8b4f8dec2b0a351cc5e8a97d3e3d23f0422224890c5db4c811e91b4d84a0c97",
        "4a6ad22841f195f402ddaa1a532724c317f0435e46742a3d4c245e4bc0c52a59",
    ),
    "ninegon.json": (
        "e5dd716fb18ca58da7e0ecb3dda8759d8273369cd7ed133a0c34d1f219341411",
        "4ed34ce1fbd6b7daa43009e3c5361c43635509736a7448b0fcab7d2c70510eee",
    ),
    "doubled_hexagon.json": (
        "3ad4ead267a06d27263ac7f1909b600ca0df2b0e97b4fb8a9d1f9a0bd5b513ff",
        "5622776fb8fc8f6773eca50a30fbddb1b552ae3adfe5ce05f53586e2b524c0b6",
    ),
}
# source: (sha256 of the JSON of ``construct chain --in <source>``, then of
# verify's stdout and render's SVG on that chain document)
CHAINS = {
    "heptagon.json": (
        "ed2c0ab482f9165bbfcaf5e872e4f845a53178e7d6d6a6e949502fe918506249",
        "cf2d941100514b11538e15160a337f3ca0dca385fd8bb4adcf5ab29735af5b32",
        "96eecb2216acdc00cc22d871f1093663405753397af5f4d46d176bb56bd22cb0",
    ),
    "hexagon.json": (
        "47089dfa1d6f812df5bd9c9114a10179a1c7d7dccf1ff6199165d9f065440318",
        "15cdc5eb0a040b436dc0203726559aaee03ac0eb1cf5122a2d21085c0e887ab7",
        "71d42d5365bf0ccb541af619b33328b38871565427d6b5ed495f001615bddcbe",
    ),
}

# kind and options: sha256 of the JSON of ``construct <kind> --seed 3``; the
# other branches of 7, 8 and 9 cover each construction's second cut
CONSTRUCTS = {
    "6": "8d9f8a818451d988f36de297b9be0b822bb962fcabcc4d4f11259d3fe59d1c89",
    "7": "a519b4206b8611392b48f49d518d6a443d07de145615ef77ecc0688a7546b9f9",
    "7 --branch 1": "0e007b76a2788de9893ee12bbb1b0b9728e021923855f068361806b275d5c18b",
    "8": "ba5b4cefc3f866b2ecf42f57421d99608d06e3e3f6ac425966ece8740b822eb0",
    "8 --branch 1": "dd944089c36fe562149f733d68f2e11d5d0f09dd9c80ee8102aadd4253168c0a",
    "9": "bc4df0b5a254795f416272b2dbb1a047373e4f8b9de0710aa3fb87f5c4640ab0",
    "9 --branch 1": "a14ab1f150b5ba13db09a8adcf3f2388f3e7c4407ac2392b22bc222d8132f30c",
    "9 --branch 2": "22f3b33d6da034250d5757b10d2ca555d0ccb0f4255ecbfa880baae0aafed9af",
    "double": "33c948248ad071acdc802e9865deee93dbc00bd76191bf41982817d673dd1d61",
}

# builds the chain documents, then runs verify and render on each document
# in one fresh process; reports the exit codes and digests, and whether
# numpy was ever imported
PROBE = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from poncelet.cli import main
data, out = Path(sys.argv[1]), Path(sys.argv[2])
documents, sources = json.loads(sys.argv[3]), json.loads(sys.argv[4])
chains, paths = {}, [data / name for name in documents]
for name in sources:
    chain = out / ("chain_" + name)
    built = main(["construct", "chain", "--in", str(data / name), "--out", str(chain)])
    chains[name] = [built, hashlib.sha256(chain.read_bytes()).hexdigest()]
    paths.append(chain)
report = {}
for path in paths:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        verified = main(["verify", "--in", str(path)])
    svg = out / (path.name + ".svg")
    rendered = main(["render", "--in", str(path), "--out", str(svg)])
    report[path.name] = [verified, rendered, hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                         hashlib.sha256(svg.read_bytes()).hexdigest()]
print(json.dumps({"chains": chains, "documents": report, "numpy": "numpy" in sys.modules}))
"""


def test_verify_and_render_bytes_are_pinned(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(poncelet.__file__).parent.parent))
    res = subprocess.run(
        [sys.executable, "-c", PROBE, str(DATA), str(tmp_path),
         json.dumps(list(PINNED)), json.dumps(list(CHAINS))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout.splitlines()[-1])
    assert probe["chains"] == {name: [0, chain_sha] for name, (chain_sha, _, _) in CHAINS.items()}
    assert probe["documents"] == {
        **{name: [0, 0, verify_sha, svg_sha] for name, (verify_sha, svg_sha) in PINNED.items()},
        **{"chain_" + name: [0, 0, verify_sha, svg_sha]
           for name, (_, verify_sha, svg_sha) in CHAINS.items()},
    }
    assert probe["numpy"] is False


# builds the seeded documents in one fresh process; reports the exit codes
# and digests, and whether numpy was ever imported
CONSTRUCT_PROBE = """
import hashlib, json, sys
from pathlib import Path
from poncelet.cli import main
out, report = Path(sys.argv[1]), {}
for kind in json.loads(sys.argv[2]):
    built = out / ("construct_" + kind.replace(" ", "_") + ".json")
    code = main(["construct", *kind.split(), "--seed", "3", "--out", str(built)])
    report[kind] = [code, hashlib.sha256(built.read_bytes()).hexdigest()]
print(json.dumps({"constructs": report, "numpy": "numpy" in sys.modules}))
"""


def test_construct_bytes_are_pinned(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(poncelet.__file__).parent.parent))
    res = subprocess.run(
        [sys.executable, "-c", CONSTRUCT_PROBE, str(tmp_path), json.dumps(list(CONSTRUCTS))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout.splitlines()[-1])
    assert probe == {"constructs": {kind: [0, sha] for kind, sha in CONSTRUCTS.items()},
                     "numpy": False}
