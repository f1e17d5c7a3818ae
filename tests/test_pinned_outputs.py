"""construct, verify and render bytes, pinned by sha256.

The documents under ``tests/data`` come from ``construct 6``, ``7``, ``8``
and ``9 --seed 3`` and from ``construct double --seed 3 --in`` the document
of ``construct 6 --seed 3`` (``hexagon.json``), as built before 0.1.3.
``verify`` recomputes each polygon's bracket residual through
``moderate_chart`` and ``StereoChart.project``, so the digests hold the
chart transfer to its floating-point bits; the output of a command is a
pure function of its input and the package version.  A change that moves
these digests changes what users get, and needs a version bump.

Every ``construct`` digest and the ``verify`` digests of the five polygon
documents are pinned as built at 0.1.5: since then the synthetic walk takes
the other root of each step by Vieta instead of solving both quadratics,
which moves the last bits of the double-wrap closure residuals that
``construct`` stores and ``verify`` prints, and nothing else (their SVGs and
the chain digests kept their bits).  ``construct 7 --branch 1``,
``8 --branch 1`` and ``9 --branch 1`` and ``2`` at seed 3 cover every cut
the three join/meet constructions can take.

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
        "1e8aa75873c52cc17344f1a8937f1ea4b8056222042821f6b27ef1d180b10ec5",
        "4353059aefd6e0f7de34d982cf647cdb44f666aa79ea7eebf885efc2f0da154f",
    ),
    "heptagon.json": (
        "ec43d7f795536f50db69d4712c971e3e641201a31ec10ff09f794cd92d29b8ce",
        "8a52d5374fae59eb2068c063c419f48c1a31d70e2333833c3e617d5f6e4d4ec9",
    ),
    "octagon.json": (
        "67e09a99d2ee8ea92aac88669e03c988ab6a4d0a719cd5f6c0e18c8e4be97f54",
        "4a6ad22841f195f402ddaa1a532724c317f0435e46742a3d4c245e4bc0c52a59",
    ),
    "ninegon.json": (
        "0dd0221bbd61d170412952d3c0b8292dbd29d5336ae880f4129e72df5e5f732b",
        "4ed34ce1fbd6b7daa43009e3c5361c43635509736a7448b0fcab7d2c70510eee",
    ),
    "doubled_hexagon.json": (
        "911a2a67f33603cc02f5655f59b22b86301035804fff3c0b0f28172abbc43cd1",
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
    "6": "018a1cb41ff7faee1f9438b075e73c7b026ebb25a3e7e5bab3a7be0b4d4e8ee1",
    "7": "3ebba202aee560314d9bb26a5b5f45bb6d5a91ae8b601040200cb425779349b1",
    "7 --branch 1": "0c1736d11c65c0094d0416bf0966d7b75a580bbaadc7325b055106004c7dc710",
    "8": "9c1bcc6660bffbbeea8e22229a9ba5b5cec797e2153662651976ba43b628239c",
    "8 --branch 1": "968cf6a670fc8cf2c0fbcf176cb7b4122f13bfbb187263450d6a2ecc66af9666",
    "9": "6ff2d0440d7a2fd7233a0d136ffe1a4dce30575e7f0ef2e88cae3aa5a8b88099",
    "9 --branch 1": "255b4fcd9086bd516a292d0e9ff3ef038cc77052d3783ccfe2ef41a090488f0d",
    "9 --branch 2": "e73c45bdcbeab639f840260c12e7cffd1d334d612f4d41a0e81313a52461c81b",
    "double": "d675b4b8ce702a245eaf4e643bfc2d5bcb61ac71bad74daca3a06f8541e27709",
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
