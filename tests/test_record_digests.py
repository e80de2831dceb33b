"""The record digest script scripts/record_digests.py, on its smallest group."""

import importlib.util
import re
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("record_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_groups_hold_the_verification_records():
    digests = _load()
    sizes = {name: len(records()) for name, records in digests.GROUPS.items()}
    assert sizes == {
        "table": 46, "grid": 240, "sweep": 512, "pairs": 500, "broken": 5, "counts": 2,
        "compatible": 1, "truncated": 621,
    }


def test_smallest_group_in_under_a_second():
    digests = _load()
    t0 = time.perf_counter()
    lines = [digests.digest(rec, call) for rec, call in digests.GROUPS["compatible"]()]
    assert time.perf_counter() - t0 < 1.0
    assert len(lines) == 1
    # eta_hi (repr) and eta_star precede the sha256; the witness proves no bound below 1
    line = re.fullmatch(
        r"compatible count4-d3 \| COMPATIBLE sdp-parent 13 (\S+) 1\.0 [0-9a-f]{64}", lines[0])
    assert line and float(line[1]) >= 1.0
    # the same bits on a second run
    assert lines == [digests.digest(rec, call) for rec, call in digests.GROUPS["compatible"]()]


def test_refused_record_prints_its_message():
    digests = _load()
    table = digests.GROUPS["table"]()
    (rec, call), = [r for r in table if r[0].startswith("table d=3 n=10 tau=0.09")]
    assert digests.digest(rec, call) == (
        f"{rec} | refused: multimode grid 3^11 exceeds the desk-scale limit 131072"
    )
