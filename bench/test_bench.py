"""Self-test of the benchmark: generator determinism, in-domain inputs, and
metric names matching BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
ROUNDS = 2


@pytest.mark.parametrize("name", sorted(W.GENERATORS))
def test_generator_is_deterministic(name):
    gen = W.GENERATORS[name]
    first, again, other = gen(7, ROUNDS), gen(7, ROUNDS), gen(8, ROUNDS)
    assert first == again
    assert W.digest(first) == W.digest(again)
    assert W.digest(first) != W.digest(other)
    assert len(first) == ROUNDS * worker.ROUND_SIZE[name]
    # inputs are plain JSON, so the digest is the whole story
    assert json.loads(json.dumps(first)) == first


def test_draws_cover_every_stratum_once():
    import random

    d = W.Draws(random.Random(3), 8)
    seen = []
    for slot in range(8):
        d.slot = slot
        seen.append(d.uniform("x", 2.0, 4.0))
    assert sorted(int((x - 2.0) / 2.0 * 8) for x in seen) == list(range(8))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.GENERATORS)
    assert SPEC["command"][1] == "bench/run.py"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_profiles_are_in_domain(seed):
    from landau_td.profiles import make_profile

    ops = W.gen_dynamics(seed, 4) + [op for op in W.gen_cli(seed, 2) if op["profile"]]
    for op in ops:
        doc = op["profile"]
        prof = make_profile(
            doc["kind"], doc["params"], q=doc["q"], B=doc["B"], kappa=doc["kappa"], t0=doc["t0"], t1=doc["t1"]
        )
        assert prof.t0 == doc["t0"] and prof.t1 == doc["t1"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coherent_labels_are_in_domain(seed):
    ops = W.gen_coherent(seed, 3)
    assert [op["near_edge"] for op in ops].count(True) == 3
    for op in ops:
        for fam in ("bg", "perelomov", "pa_bg", "pa_perelomov"):
            assert op[fam]["k"] in W.SU11_K
        assert abs(complex(*op["perelomov"]["eta"])) < 1.0
        assert abs(complex(*op["pa_perelomov"]["eta"])) < 1.0
        assert op["bg"]["z"] > 0 and op["bg"]["z2"] > 0
        assert 0 <= op["su2_pa"]["p"] <= 2 * op["su2_pa"]["j"]
        assert 0 <= op["pa_bg"]["n_add2"] <= op["pa_bg"]["n_add"]
        edge = abs(complex(*op["canonical"]["z_plus"]))
        if op["near_edge"]:
            assert 7.0 <= edge <= 10.0 and op["su2"]["j"] >= 20
            assert 0.95 <= abs(complex(*op["perelomov"]["eta"])) <= 0.99
        else:
            assert edge <= 3.0


def test_moments_cover_each_family_per_round():
    ops = W.gen_moments(5, 4)
    for r in range(4):
        fams = sorted(op["family"] for op in ops[3 * r: 3 * r + 3])
        assert fams == ["bg_pa", "perelomov_pa", "su2_pa"]
    for op in ops:
        assert op["tol"] == W.MOMENT_TOL[op["family"]]


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (24, 75, 135, 200):
        p = worker.tail_percentile(n)
        assert p > 50
        assert n - math.ceil(p / 100 * n) >= 10
        assert n - math.ceil((p + 1) / 100 * n) < 10
    assert worker.tail_percentile(6) == 100


def test_end_to_end_names_match_benchmark_json():
    records = [
        {"seconds": 0.1 * (i + 1), "wall_seconds": 0.2 * (i + 1), "passed": i != 3, "ratio": 0.5, "rss_kb": 1024}
        for i in range(30)
    ]
    metrics, _ = worker.end_to_end("cli", records, 1.25)
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(metrics) | {"setup_s"} == declared


def test_per_layer_names_match_benchmark_json():
    tracer = tracing.Tracer()
    summary = tracing.Summary(tracer)
    imports = {m: 1.0 for m in worker.IMPORT_MODULES}
    records = [{"seconds": 1.0}]
    names = set(worker.per_layer(summary, records, imports)) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_speed_samples_once_per_share_of_op_time(monkeypatch):
    sp = speed.Speed()
    monkeypatch.setattr(sp, "kernel", lambda: None)
    for op_cpu in (0.3, 0.3, 0.3, 1.2, 0.1):
        sp.after_op(op_cpu)
    # 2.2 s of op CPU time: one call per SAMPLE_EVERY_S, the rest carried over
    assert len(sp.samples) == int(2.2 / speed.SAMPLE_EVERY_S)
    sp.samples = [(0.0, speed.NOMINAL_S), (1.0, 2.0 * speed.NOMINAL_S)]
    assert sp.factor() == pytest.approx(1.5)


def test_exclusive_time_subtracts_other_layers_only():
    spans = [
        ["verify.moment_problem_check", 0.0, 10.0, -1, 0],
        ["coherent.evaluator", 1.0, 7.0, 0, 0],
        ["specfun.meijer_g", 2.0, 6.0, 1, 0],
        ["auxode.solve_ep_numeric", 20.0, 30.0, -1, 1],
        ["auxode.solve_ivp", 21.0, 29.0, 3, 1],
    ]
    assert tracing.exclusive_times(spans) == [4.0, 2.0, 4.0, 10.0, 8.0]


def test_importtime_parser_sums_packages_without_a_line():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy.sparse._base",
            "import time:        50 |         50 |       scipy.sparse.linalg._x",
            "import time:       200 |        250 |     scipy.sparse.linalg",
            "import time:       300 |        900 |   scipy.integrate",
        ]
    )
    out = worker.parse_importtime(text)
    assert out["scipy.integrate"] == 0.9
    assert out["scipy.sparse"] == pytest.approx(0.35)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH_DIR, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dynamics", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
