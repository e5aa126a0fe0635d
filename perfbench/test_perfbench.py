"""The benchmark's own test: tiny-load smoke runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root or anywhere else; the runs themselves are
made from the root, which holds ``src/pzid``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd, *args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def smoke(workload, trace, seed=3):
    out = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return last, json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_checked_reproducible_and_traced(workload):
    last, first = smoke(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())

    _, again = smoke(workload, 0)
    assert again["digest"] == first["digest"]

    last, traced = smoke(workload, 1)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["digest"] == first["digest"]  # wrappers change no output
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["trace.accounted_frac"] > 0.99
    for layer in tracing.EXPECTED[workload]:
        assert m[f"{layer}.self_s"] > 0

    lines, valid = compare.compare(first, again)
    assert valid and "digest identical" in "\n".join(lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench(tmp_path, "--workload", "sweep", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_self_time_subtracts_children():
    spans = [["bench.job", 0.0, 10.0, -1, 0, None],
             ["staban.auto_identify", 1.0, 9.0, 0, 0, None],
             ["ratfit.fit", 2.0, 5.0, 1, 0, {"iters": 3, "converged": True, "samples": 8}],
             ["ratfit.fit", 6.0, 7.0, 1, 0, {"iters": 2, "converged": False, "samples": 8}]]
    m, calls = tracing.reduce(spans)
    assert m["staban.self_s"][0] == pytest.approx(4.0)  # 8 s minus 3 s and 1 s of fits
    assert m["ratfit.self_s"][0] == pytest.approx(4.0)
    assert m["ratfit.fit.iters"][0] == 5 and m["ratfit.fit.converged_frac"][0] == 0.5
    assert m["bench.self_s"][0] == pytest.approx(2.0)
    assert m["trace.accounted_frac"][0] == pytest.approx(0.8)
    assert m["staban.fits_per_verdict"][0] == 2
    assert calls["ratfit"] == 2 and calls["netsim"] == 0


def test_wrappers_fail_loudly_and_restore(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pzid
    import pzid.cli  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install(pzid)
    with pytest.raises(tracing.TraceError):
        tracing.assert_clean(pzid)
    tracer.restore(pzid)
    tracing.assert_clean(pzid)

    # a refactor that stops importing a traced name into sweeps
    monkeypatch.delattr(pzid.sweeps, "analytic_poles")
    with pytest.raises(tracing.TraceError, match="sweeps.analytic_poles"):
        tracing.Tracer().install(pzid)
    tracing.assert_clean(pzid)
