"""Golden-file regression tests for the paper artifacts (smoke scale).

Five small experiment CSVs — fig6 (CG iterations), fig8 (Cholesky
backward error), table2 (naive IR), the X13 solver × format grid and
X3 (CG vs BiCG vs BiCGSTAB) — are regenerated at
``SCALES["smoke"]`` and compared column-by-column against checked-in
digests.  Floats are canonicalized to 10 significant digits before
hashing, so the comparison tolerates formatting drift but catches any
numerical change an emulation/summation/solver edit introduces.

To refresh after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/experiments/test_golden.py

and commit the updated ``golden/*.json`` together with the change that
explains it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from repro.config import SCALES
from repro.experiments import (common, ext_bicg, ext_solver_grid,
                               fig06_cg, fig08_cholesky, table02_ir_naive)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "smoke_digests.json"

_EXPERIMENTS = (fig06_cg, fig08_cholesky, table02_ir_naive,
                ext_solver_grid, ext_bicg)
ARTIFACTS = ("fig06_cg.csv", "fig08_cholesky.csv",
             "table02_ir_naive.csv", "ext_solver_grid.csv", "ext_bicg.csv")
#: the digest file of each artifact.  ``smoke_digests.json`` holds the
#: cell-decomposed experiments only: ``benchmarks/e2e`` checks a smoke
#: sweep's CSVs against every entry in it, and X3 is not in that sweep.
GOLDEN_FILES = {name: (GOLDEN_DIR / "ext_bicg_digests.json"
                       if name == "ext_bicg.csv" else GOLDEN_PATH)
                for name in ARTIFACTS}


def _canon(value: str) -> str:
    """Canonical text for one CSV cell: floats to 10 significant digits."""
    try:
        f = float(value)
    except ValueError:
        return value                       # matrix names, flags, messages
    if math.isnan(f):
        return "nan"
    return "%.10g" % f


def column_digests(csv_path: str) -> dict[str, str]:
    """Short sha256 digest of each column's canonicalized values."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    headers, body = rows[0], rows[1:]
    out = {}
    for i, name in enumerate(headers):
        text = "\n".join(_canon(r[i]) for r in body)
        out[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


@pytest.fixture(scope="module")
def smoke_csvs(tmp_path_factory):
    """Run the experiments once at smoke scale, isolated results."""
    tmp = tmp_path_factory.mktemp("golden-results")
    saved = os.environ.get("REPRO_RESULTS_DIR")
    os.environ["REPRO_RESULTS_DIR"] = str(tmp)
    common.clear_cache()
    try:
        paths = {}
        for mod in _EXPERIMENTS:
            res = mod.run(scale=SCALES["smoke"], quiet=True)
            paths[os.path.basename(res.csv_path)] = res.csv_path
        yield paths
    finally:
        common.clear_cache()
        if saved is None:
            os.environ.pop("REPRO_RESULTS_DIR", None)
        else:
            os.environ["REPRO_RESULTS_DIR"] = saved


def test_canonicalization_tolerates_formatting_not_values():
    assert _canon("0.5") == _canon("5e-1")
    assert _canon("1.00000000001") == _canon("1.0")      # < 10 sig digits
    assert _canon("1.000001") != _canon("1.0")
    assert _canon("inf") == "inf" and _canon("nan") == "nan"
    assert _canon("True") == "True" and _canon("-") == "-"


def test_all_artifacts_produced(smoke_csvs):
    assert sorted(smoke_csvs) == sorted(ARTIFACTS)
    for path in smoke_csvs.values():
        assert os.path.exists(path)


def test_smoke_columns_match_golden(smoke_csvs):
    got = {name: column_digests(path)
           for name, path in sorted(smoke_csvs.items())}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        for path in set(GOLDEN_FILES.values()):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(
                {name: got[name] for name in ARTIFACTS
                 if GOLDEN_FILES[name] == path},
                indent=2, sort_keys=True) + "\n")
    missing = sorted({p.name for p in GOLDEN_FILES.values()
                      if not p.exists()})
    assert not missing, (f"no golden digests checked in ({missing}); "
                         "run once with REPRO_UPDATE_GOLDEN=1")
    mismatches = []
    for name in ARTIFACTS:
        want = json.loads(GOLDEN_FILES[name].read_text()).get(name, {})
        for col, digest in got[name].items():
            if want.get(col) != digest:
                mismatches.append(f"{name}:{col}")
        for col in set(want) - set(got[name]):
            mismatches.append(f"{name}:{col} (column removed)")
    assert not mismatches, (
        "golden drift in " + ", ".join(mismatches)
        + " — if the numerical change is intentional, regenerate with "
          "REPRO_UPDATE_GOLDEN=1 and commit the new digests")
