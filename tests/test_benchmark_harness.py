"""The benchmark harness under ``perfbench/`` still runs against the package.

``perfbench/tracer.py`` wraps package functions by module attribute (for
example ``cli.stratified_split`` and ``baselines.pca_fit``) and
``perfbench/checks.py`` reads every artifact through the package's loaders.
The harness's own tests are not part of this suite, so a refactor that
renames a wrapped function or changes what the checks read fails here: a
traced ``hubofs run`` on a small generated table, then the output checks,
in a child process so that the wrappers never touch this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path

perfbench, work = sys.argv[1], Path(sys.argv[2])
sys.path.insert(0, perfbench)
import checks, table, tracer

table.write_table(work / "table.csv", seed=1, rows=300, features=8)
code = tracer.main([
    str(work / "spans.jsonl"), "run", "--input", str(work / "table.csv"), "--target", "label",
    "--preselect-k", "6", "--shots", "64", "--sweeps", "5", "--out", str(work / "out"),
])
_, failures = checks.check_run(work / "out", shots=64, k=6)
print(json.dumps({"code": code, "failures": failures}))
"""

CLI_SPANS = {
    "cli.build", "cli.sample", "cli.select", "cli.compare",
    "dataset.load_csv", "dataset.standardize", "dataset.split", "dataset.discretize",
    "baselines.logistic_fit", "baselines.evaluate", "baselines.pca_fit",
}


def test_traced_run_passes_the_benchmark_checks(tmp_path):
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing is written under perfbench/
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "failures": []}
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    names = {json.loads(line).get("name") for line in lines}
    assert CLI_SPANS <= names
