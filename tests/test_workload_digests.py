"""Every file the benchmark workloads read and write, against committed digests.

`tests/golden/workload_digests.json` holds, for `mesh-spheres`,
`volume-deep` and `staged-print` at seeds 0, 3 and 7, the sha256 of every
input file that `perfbench/workloads.prepare` writes and of every file that
the workload's commands write. A change to the output of any stage names
the files it moved; a change to the inputs is told apart from one to the
outputs. A PNG embedded in an SVG is hashed by its chunks with the IDAT
data decompressed, so the digest does not depend on the zlib build.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_workload_digests.py

and list the files that moved.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import re
import struct
import sys
import tempfile
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "workload_digests.json"
SEEDS = (0, 3, 7)
PNG_URI = re.compile(rb"data:image/png;base64,([A-Za-z0-9+/=]+)")

sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402

from sliceforge.cli import main  # noqa: E402


def png_digest(png: bytes) -> str:
    """sha256 of a PNG's chunks in order, IDAT joined and decompressed."""
    h, pos, idat = hashlib.sha256(), 8, b""
    while pos < len(png):
        (length,), kind = struct.unpack(">I", png[pos:pos + 4]), png[pos + 4:pos + 8]
        data, pos = png[pos + 8:pos + 8 + length], pos + 12 + length
        if kind == b"IDAT":
            idat += data
            continue
        if idat:
            h.update(b"IDAT" + zlib.decompress(idat))
            idat = b""
        h.update(kind + data)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".svg":
        data = PNG_URI.sub(lambda m: b"png-scanlines:" + png_digest(base64.b64decode(m[1])).encode(), data)
    return hashlib.sha256(data).hexdigest()


def workload_digests(name: str, seed: int, work: Path) -> dict[str, str]:
    """Digests of the inputs (`in/...`) and outputs (`out/...`) of one run."""
    spec = workloads.prepare(name, seed, work / "in")
    (work / "out").mkdir()
    for argv in spec["argvs"]:
        code = main([a.replace("{out}", str(work / "out")) for a in argv])
        assert code in (0, None), f"{name} seed {seed}: {argv[0]} exited {code}"
    return {p.relative_to(work).as_posix(): file_digest(p) for p in sorted(work.rglob("*")) if p.is_file()}


def all_digests(tmp: Path) -> dict[str, dict[str, str]]:
    return {f"{name} seed {seed}": workload_digests(name, seed, tmp / f"{name}-{seed}")
            for name in workloads.NAMES for seed in SEEDS}


def test_every_workload_file_matches_its_digest(tmp_path, capsys):
    golden, found = json.loads(GOLDEN.read_text()), all_digests(tmp_path)
    capsys.readouterr()  # what the builds printed
    moved = [f"{run}: {file}" for run in sorted(golden.keys() | found.keys())
             for file in sorted(golden.get(run, {}).keys() | found.get(run, {}).keys())
             if golden.get(run, {}).get(file) != found.get(run, {}).get(file)]
    assert not moved, "files that differ from tests/golden/workload_digests.json:\n" + "\n".join(moved)


def test_png_digest_reads_through_the_compression():
    from sliceforge.export import encode_png
    import numpy as np

    png = encode_png(np.array([[0, 1], [1, 0]]), np.array([[0, 0, 0, 255], [255, 255, 255, 255]], dtype=np.uint8))
    idat = png.index(b"IDAT") - 4
    (length,) = struct.unpack(">I", png[idat:idat + 4])
    raw = zlib.decompress(png[idat + 8:idat + 8 + length])
    other = zlib.compress(raw, 1)
    chunk = struct.pack(">I", len(other)) + b"IDAT" + other + struct.pack(">I", zlib.crc32(b"IDAT" + other))
    recompressed = png[:idat] + chunk + png[idat + 12 + length:]
    assert recompressed != png and png_digest(recompressed) == png_digest(png)
    assert png_digest(png.replace(b"\xff\xff\xff", b"\xff\xff\xfe")) != png_digest(png)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        GOLDEN.write_text(json.dumps(all_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
