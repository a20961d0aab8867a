"""Every scenario of ``tests/scenarios/`` and every bundled one named in its ``expected.json``, run in
process through the CLI at ``--jobs`` 1, 2 and 3.

``expected.json`` holds per scenario name its exit code and either its sorted case ids or its stderr,
and the paths each ``mc_ito`` record used, so a change in where the pathwise check stops shows in its
diff.  A name with no file in the directory is a bundled scenario.  Adding a scenario is adding its file
and its entry there.
"""

import json
import time
from pathlib import Path

import pytest

from gaussito.cli import main

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
EXPECTED = json.loads((SCENARIOS / "expected.json").read_text(encoding="utf-8"))
NAMES = sorted({p.stem for p in SCENARIOS.glob("*.json")} - {"expected"} | set(EXPECTED))


@pytest.mark.parametrize("name", NAMES)
def test_scenario_runs_alike_at_every_jobs(name, tmp_path, capsys):
    expected = EXPECTED[name]
    path = SCENARIOS / f"{name}.json"
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        start = time.perf_counter()
        code = main(["run", str(path) if path.exists() else name, "--out", str(out), "--jobs", str(jobs)])
        seconds = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (expected["exit"], expected.get("stderr", ""))
        if code == 2:
            # refused while planning: no report, in well under a second
            assert not out.exists() and seconds < 10
            continue
        outputs.append([(out / "report.json").read_bytes(), (out / "terms.csv").read_bytes()])
    assert all(files == outputs[0] for files in outputs[1:])
    if outputs:
        # a check that silently stops planning its cases shows here
        cases = json.loads(outputs[0][0])["cases"]
        assert [case["case_id"] for case in cases] == expected["case_ids"]
        paths = {case["case_id"]: case["mc"]["n_paths"] for case in cases if case["case_id"].startswith("mc_ito:")}
        assert paths == expected.get("mc_ito_paths", {})
