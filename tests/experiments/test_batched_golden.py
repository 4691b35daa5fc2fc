"""Table-kernel golden regression: sweeps are byte-stable.

The table-driven rounding kernels (dense and two-level LUT
quantization) must be invisible in the paper artifacts: the fig6 and
table2 smoke sweeps run with the tables forced **on** ("batched") and
forced **off** (``REPRO_LUT=off`` semantics, toggled in-process, so
every value goes through the bitwise rounders — the "serial"
reference) must produce sha256-identical CSVs — the same contract CI
enforces out-of-process with ``cmp`` on the two-worker sweep.  The
table-mode artifacts are additionally held to the checked-in column
digests of ``test_golden.py``, so a regression here names the guilty
kernel mode, not just "something drifted".
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.config import SCALES
from repro.experiments import common, fig06_cg, table02_ir_naive
from repro.kernels import lut

from .test_golden import GOLDEN_PATH, column_digests

_EXPERIMENTS = (fig06_cg, table02_ir_naive)
ARTIFACTS = ("fig06_cg.csv", "table02_ir_naive.csv")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_sweeps(tmp, enabled: bool) -> dict[str, str]:
    """Run the smoke sweeps with the LUT kernels forced to *enabled*;
    return ``{csv-name: path}``."""
    saved_dir = os.environ.get("REPRO_RESULTS_DIR")
    saved_lut = lut._ENABLED
    os.environ["REPRO_RESULTS_DIR"] = str(tmp)
    lut._ENABLED = enabled
    common.clear_cache()
    try:
        paths = {}
        for mod in _EXPERIMENTS:
            res = mod.run(scale=SCALES["smoke"], quiet=True)
            paths[os.path.basename(res.csv_path)] = res.csv_path
        return paths
    finally:
        lut._ENABLED = saved_lut
        common.clear_cache()
        if saved_dir is None:
            os.environ.pop("REPRO_RESULTS_DIR", None)
        else:
            os.environ["REPRO_RESULTS_DIR"] = saved_dir


@pytest.fixture(scope="module")
def sweep_paths(tmp_path_factory):
    batched = _run_sweeps(tmp_path_factory.mktemp("batched"), True)
    serial = _run_sweeps(tmp_path_factory.mktemp("serial"), False)
    return batched, serial


def test_both_modes_produce_all_artifacts(sweep_paths):
    batched, serial = sweep_paths
    assert sorted(batched) == sorted(ARTIFACTS)
    assert sorted(serial) == sorted(ARTIFACTS)
    for path in list(batched.values()) + list(serial.values()):
        assert os.path.getsize(path) > 0


def test_batched_and_serial_csvs_are_sha256_identical(sweep_paths):
    batched, serial = sweep_paths
    mismatches = [name for name in ARTIFACTS
                  if _sha256(batched[name]) != _sha256(serial[name])]
    assert not mismatches, (
        "table kernels changed the artifacts: " + ", ".join(mismatches)
        + " — the dense/two-level table paths must be bit-identical "
          "to the bitwise reference, never 'close'")


def test_batched_mode_matches_committed_golden(sweep_paths):
    """Forced-on table artifacts match the checked-in digests too,
    pinning both modes to the same committed numbers."""
    if not GOLDEN_PATH.exists():
        pytest.skip("no committed golden digests")
    want = json.loads(GOLDEN_PATH.read_text())
    batched, _ = sweep_paths
    mismatches = []
    for name in ARTIFACTS:
        got = column_digests(batched[name])
        for col, digest in got.items():
            if want.get(name, {}).get(col) != digest:
                mismatches.append(f"{name}:{col}")
    assert not mismatches, (
        "table-mode sweep drifted from the committed golden digests: "
        + ", ".join(mismatches))
