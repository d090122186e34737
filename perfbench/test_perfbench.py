"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts the benchmark as a child process from a checkout root,
exactly as it is meant to be run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(*args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["interval-minimize", "prop-decide"])
def test_sat_calls_repeat_exactly_across_hash_seeds(workload):
    counts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        p = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", env=env)
        assert p.returncode == 0, p.stderr
        result = _last_json(p.stdout)
        assert result["correct"], p.stdout
        m = result["metrics"]
        counts.append({k: m[k]["value"] for k in ("algebra.sat_calls", "algebra.conj_built", "algebra.disj_built")})
    assert counts[0] == counts[1]
    assert counts[0]["algebra.sat_calls"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _bench("--workload", "interval-minimize", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_tail_is_highest_rung_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(40))) == (75.0, 29)
    assert run.tail(list(range(20)))[0] == 50.0
    assert run.tail(list(range(1000))) == (99.0, 989)


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_truth_tables_agree_with_the_algebra():
    import random

    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import workloads
    from symfa import oracle

    for k in (3, 6):
        vals = oracle.default_alphabet(gen.monomial_nfa(random.Random(0), k, 1, 1, 2))
        binding = gen.prop_binding(k)
        for seed in range(50):
            p = gen.general_pred(random.Random(seed), k, 7)
            mask = workloads._truth_table(p, k)
            assert [mask >> i & 1 == 1 for i in range(len(vals))] == [binding.evaluate(p, v) for v in vals]
