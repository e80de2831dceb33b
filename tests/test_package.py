"""The installed surface: numpy-only imports and a resolvable public API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lossjm

PROBE = """
import json, sys
before = set(sys.modules)
import lossjm
missing = [n for n in lossjm.__all__ if not hasattr(lossjm, n)]
loaded = sorted({m.split(".")[0] for m in set(sys.modules) - before})
print(json.dumps({"loaded": loaded, "missing": missing, "count": len(lossjm.__all__)}))
"""


def test_import_loads_numpy_only():
    src = str(Path(lossjm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    third_party = [
        m for m in probe["loaded"] if m not in sys.stdlib_module_names and m != "lossjm"
    ]
    assert third_party == ["numpy"]
    assert not {"scipy", "mpmath", "hypothesis", "pytest"} & set(probe["loaded"])
    assert probe["missing"] == []
    assert probe["count"] == len(set(lossjm.__all__)) == 38
