"""The benchmark's own tests.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stream  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _answers() -> dict:
    return json.loads((HERE / "answers.json").read_text())


# -- the seeded stream ---------------------------------------------------------

def _stream(seed):
    return stream.make_stream(seed, stream.verified_pairs(_answers()["verdicts"]))


def _composition(jobs):
    return sorted((j.cca, j.env, j.recheck) for j in jobs)


def test_stream_is_a_pure_function_of_the_seed():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)


@pytest.mark.parametrize("seed", [1, 12345])
def test_stream_composition_is_the_same_for_every_seed(seed):
    jobs = _stream(seed)
    assert len(jobs) == stream.STREAM_SIZE
    assert [j.index for j in jobs] == list(range(len(jobs)))
    assert _composition(jobs) == _composition(_stream(0))
    first = [(j.cca, j.env) for j in jobs if not j.recheck]
    assert first == list(stream.PAIRS)
    rechecked = {(j.cca, j.env) for j in jobs if j.recheck}
    assert rechecked == set(stream.PAIRS)


@pytest.mark.parametrize("seed", [0, 3])
def test_every_recheck_follows_its_first_query(seed):
    seen = set()
    for job in _stream(seed):
        if job.recheck:
            assert (job.cca, job.env) in seen
        else:
            seen.add((job.cca, job.env))


def test_stream_never_repeats_a_spec_fingerprint():
    from repro.ccac import ModelConfig

    cfg = ModelConfig(T=workloads.HORIZON)
    jobs = _stream(11)
    prints = {stream.verify_job_spec(j, cfg).fingerprint() for j in jobs}
    assert len(prints) == len(jobs)


# -- BENCHMARK.json and metric names -------------------------------------------

def test_metric_names_and_units_follow_the_grammar():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_declared_metrics_match_what_the_benchmark_reports():
    spec = _spec()
    reported = layers.layer_metrics({"counters": {}, "histograms": {}}, {})
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "synth_job_s", "jobs_per_s", "job_p50_s",
        "job_tail_s", "peak_rss_mb",
    }
    assert [w["name"] for w in spec["workloads"]] == ["serial", "service"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    assert layers.tail(xs) == (89.0, 90)
    assert layers.tail([3.0, 1.0]) == (3.0, 100)


# -- known answers -------------------------------------------------------------

def test_known_answers_load():
    answers = _answers()
    assert answers["serial"]["iterations"] == 36
    assert len(answers["serial"]["solutions"]) == 1
    assert len(answers["exhaust"]["solutions"]) == 4
    assert answers["exhaust"]["certified_verdicts"] == 4
    for cca, env in stream.PAIRS:
        assert isinstance(answers["verdicts"][cca][env], bool)


def test_synthesis_check_accepts_the_answer_and_flags_a_mismatch():
    expected = _answers()["exhaust"]
    got = {
        "stop_reason": "exhausted",
        "certified_verdicts": 4,
        # payload form: fraction strings, any order
        "solutions": [
            {"alphas": [str(a) for a in s["alphas"]],
             "betas": [str(b) for b in s["betas"]], "gamma": str(s["gamma"])}
            for s in reversed(expected["solutions"])
        ],
    }
    assert workloads.check_synthesis(expected, got) == []
    got["solutions"] = got["solutions"][1:]
    got["certified_verdicts"] = 3
    assert len(workloads.check_synthesis(expected, got)) == 2


# -- the wrappers --------------------------------------------------------------

def _current(module, path):
    owner, name = layers._resolve(module, path)
    return vars(owner)[name]


def test_wrappers_restore_the_original_functions():
    originals = {(m, p): _current(m, p) for _l, _x, m, p in layers.TARGETS}
    patches = layers.Patches()
    try:
        layers.install(patches)
        for (m, p), fn in originals.items():
            assert _current(m, p) is not fn, (m, p)
    finally:
        patches.restore()
    for (m, p), fn in originals.items():
        assert _current(m, p) is fn, (m, p)


def test_traced_check_records_layer_counts():
    from repro.obs import metrics
    from repro.smt import Solver
    from repro.smt.terms import Real

    before = metrics().snapshot()
    patches = layers.Patches()
    try:
        layers.install(patches)
        x, y = Real("pb_x"), Real("pb_y")
        s = Solver()
        s.add(x + y >= 3, x - y <= 1, y <= 1)
        s.check()
    finally:
        patches.restore()
    d = layers.deltas(before, metrics().snapshot())
    m = layers.layer_metrics(d, {"wall_s": 1.0})
    assert m["solver.checks"] == 1
    assert m["sat.calls"] == 1
    assert m["simplex.checks"] >= 1
    assert m["compile.queries"] >= 1
    # nested wrapped calls are subtracted: the parts never exceed the whole
    assert 0 < m["trace.attributed_frac"] < 1
