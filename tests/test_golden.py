"""Golden reports: fresh CLI output must match the committed files byte for byte.

A change that moves floats on purpose regenerates the files with
``python tests/test_golden.py``, which rewrites each file that changed and
prints the JSON path and relative drift of every float that moved; the
change lists that drift in CHANGES.md.  A report too large to commit (over
about 100 KB) is stored as ``<stem>.sha256``, its SHA-256 hex digest and its
byte count; for those the script prints the old and the new digest.

Reports are byte-identical only for a fixed BLAS thread count: threaded
LAPACK factorizations round differently.  So both the tests and the script
render every case in one child interpreter with one BLAS thread
(``render_all``).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metastab
from metastab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "bd3": {
        "states": ["1", "2", "3"],
        "rates": [["1", "2", 1.0], ["2", "1", 1.0], ["2", "3", 1.0], ["3", "2", 1.0]],
        "partition": {"valleys": [["1"], ["3"]], "delta": ["2"]},
    },
    "b2": {
        "states": ["1", "2"],
        "rates": [["1", "2", 2.0], ["2", "1", 3.0]],
        "partition": {"valleys": [["1"], ["2"]], "delta": []},
    },
    "c3": {
        "states": ["1", "2", "3"],
        "rates": [["1", "2", 1.0], ["2", "3", 1.0], ["3", "1", 1.0]],
    },
}

# report file -> (spec name or None, CLI arguments before --spec/--out)
CASES = {
    "bd3_analyze.json": ("bd3", ["analyze"]),
    "bd3_analyze_theta1.json": ("bd3", ["analyze", "--theta", "1"]),
    "glued_d2_N8_analyze.json": (None, ["analyze", "--model", "glued_cubes:d=2,N=8,ell=2"]),
    "c3_cycles.json": ("c3", ["cycles"]),
    "bd3_validate.json": ("bd3", ["validate", "--theta", "2", "--grid", "0.5,1",
                                  "--trials", "400", "--seed", "5", "--delta", "0.5"]),
    "bd3_validate_start3.json": ("bd3", ["validate", "--theta", "2", "--grid", "0.5,1",
                                         "--trials", "400", "--seed", "5", "--delta", "0.5",
                                         "--start", "3"]),
    "b2_analyze.json": ("b2", ["analyze"]),
    "b2_validate.json": ("b2", ["validate", "--theta", "1", "--grid", "0.5,1",
                                "--trials", "50", "--seed", "3"]),
    "zr_L4_N20_p07_analyze.json": (None, ["analyze", "--model",
                                          "zero_range:L=4,N=20,alpha=3,p=0.7"]),
    "zr_L3_N30_validate.json": (None, ["validate", "--model", "zero_range:L=3,N=30,alpha=3,p=0.5",
                                       "--trials", "2", "--grid", "0.5,1", "--seed", "1"]),
    "prw_N8_points41_analyze.json": (None, ["analyze", "--model", "potential_rw:N=8,points=41"]),
    "zr_L3_N5_p07_cycles.json": (None, ["cycles", "--model", "zero_range:L=3,N=5,alpha=3,p=0.7"]),
    "zr_L4_N16_p07_cycles.json": (None, ["cycles", "--model",
                                         "zero_range:L=4,N=16,alpha=3,p=0.7"]),
    "glued_d2_N32_ell8_cycles.json": (None, ["cycles", "--model", "glued_cubes:d=2,N=32,ell=8"]),
    "zr_L3_N60_p07_cycles.json": (None, ["cycles", "--model",
                                         "zero_range:L=3,N=60,alpha=3,p=0.7"]),
}

# reports stored by digest, not byte for byte
DIGESTED = {"zr_L4_N16_p07_cycles.json", "glued_d2_N32_ell8_cycles.json",
            "zr_L3_N60_p07_cycles.json"}


def golden_path(name):
    return GOLDEN / (Path(name).stem + ".sha256" if name in DIGESTED else name)


def stored(name, report):
    """What the golden file of a case holds for these report bytes."""
    if name not in DIGESTED:
        return report
    return f"{hashlib.sha256(report).hexdigest()} {len(report)}\n".encode()


def render(name, workdir):
    """Run the CLI for one case in ``workdir``, writing the report to ``workdir / name``."""
    spec, args = CASES[name]
    args = list(args)
    if spec is not None:
        spec_path = Path(workdir) / f"{spec}.json"
        spec_path.write_text(json.dumps(SPECS[spec]))
        args += ["--spec", str(spec_path)]
    main(args + ["--out", str(Path(workdir) / name)])


def render_all(workdir):
    """Render every case into ``workdir`` in one child interpreter that runs
    this package with one BLAS thread; returns what the child printed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(metastab.__file__).parent.parent),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, __file__, "--render", str(workdir)], env=env,
                           capture_output=True, text=True)
    return child.stdout + child.stderr


@pytest.fixture(scope="session")
def rendered(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, render_all(workdir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, rendered):
    workdir, printed = rendered
    assert (workdir / name).exists(), f"{name} was not rendered:\n{printed}"
    assert stored(name, (workdir / name).read_bytes()) == golden_path(name).read_bytes()


def float_drift(old, new, path=""):
    """Yield (JSON path, relative drift) for each float that differs between
    two parsed reports; any other difference yields (path, None)."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new:
            yield path, abs(new - old) / max(abs(old), abs(new))
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from float_drift(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from float_drift(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, None


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--render"]:
        for case in sorted(CASES):
            render(case, sys.argv[2])
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        print(render_all(tmp), end="", file=sys.stderr)
        for case in sorted(CASES):
            target = golden_path(case)
            fresh = stored(case, (Path(tmp) / case).read_bytes())
            old = target.read_bytes() if target.exists() else None
            if old == fresh:
                continue
            target.write_bytes(fresh)
            print(f"wrote {target}", file=sys.stderr)
            if case in DIGESTED:
                print(f"  old {old.decode().strip() if old else None}\n"
                      f"  new {fresh.decode().strip()}", file=sys.stderr)
            if old is None or case in DIGESTED:
                continue
            changes = list(float_drift(json.loads(old), json.loads(fresh)))
            for path, rel in changes:
                print(f"  {path}: " + ("changed" if rel is None else f"{rel:.2e}"),
                      file=sys.stderr)
            floats = [rel for _, rel in changes if rel is not None]
            if floats:
                print(f"  largest relative drift {max(floats):.2e}", file=sys.stderr)
