"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import Job, check_pass, fundamental_job, standard_job

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = workloads.load_digests()


def qloop(*argv, entry=("-m", "qloop.cli")) -> tuple:
    rc, out, err, *_ = run.run_process([sys.executable, *entry, *argv],
                                       run.Session(ROOT).env)
    return rc, out, err


@pytest.fixture(scope="module")
def d4_fundamentals():
    jobs = [fundamental_job("D4", 3, 6), fundamental_job("D4", 1, 3)]
    return jobs, [qloop(*job.argv)[:2] for job in jobs]


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER


def test_jobs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_jobs(w, 7) == workloads.make_jobs(w, 7)
    shifts = {j.key: j.shift for j in workloads.make_jobs(
        "qchar-grassmannian", 7)}
    assert shifts["fundamental D4 3"] % 2 == 0
    assert shifts["fundamental D4 1"] % 2 == 1
    assert any(workloads.make_jobs("qchar-grassmannian", s)
               != workloads.make_jobs("qchar-grassmannian", 7)
               for s in range(3))


def test_correct_outputs_pass(d4_fundamentals):
    jobs, results = d4_fundamentals
    assert check_pass(jobs, results, EXPECTED) == [[], []]


def corrupt(stdout: bytes) -> bytes:
    data = json.loads(stdout)
    data["terms"][-1]["c"] += 1
    return json.dumps(data).encode()


def test_corrupted_stdout_fails(d4_fundamentals):
    jobs, results = d4_fundamentals
    bad = [(rc, corrupt(out)) for rc, out in results]
    assert all(check_pass(jobs, bad, EXPECTED))
    assert check_pass(jobs, [(1, results[0][1]), results[1]], EXPECTED)[0]
    assert check_pass(jobs, [(0, b"not json"), results[1]], EXPECTED)[0]
    tsys = workloads.tsystem_job("A4", 2, 3, 5)
    assert check_pass([tsys], [(0, b"pass\n")], EXPECTED) == [[]]
    assert check_pass([tsys], [(0, b"FAIL\n")], EXPECTED) != [[]]


def test_standard_checked_against_the_fundamentals(d4_fundamentals):
    jobs, results = d4_fundamentals
    std = standard_job(10)
    (j3, (_, o3)), (j1, (_, o1)) = zip(jobs, results)
    product = workloads.multiply(
        workloads.shift_terms(workloads._terms(o3), 10 - j3.shift),
        workloads.shift_terms(workloads._terms(o1), 11 - j1.shift))
    out = json.dumps({"terms": [{"Y": [list(t) for t in m], "c": c}
                                for m, c in sorted(product.items())]}).encode()
    assert check_pass(jobs + [std], results + [(0, out)], EXPECTED)[2] == []
    assert check_pass(jobs + [std], results + [(0, corrupt(out))],
                      EXPECTED)[2]
    # without a correct fundamental in the pass the product cannot be checked
    assert check_pass(jobs[:1] + [std], results[:1] + [(0, out)],
                      EXPECTED)[1]


def test_session_counts_a_wrong_output_as_failed():
    session = run.Session(ROOT)
    wrong = Job(workloads.SETUP_JOB.key, ("sl2", "kr", "--k", "1", "--s", "2"),
                "setup")
    session.run_pass([workloads.SETUP_JOB, wrong])
    assert (session.attempted, session.failed) == (2, 1)


@pytest.mark.parametrize("argv", [
    ("qchar", "fundamental", "--type", "D4", "--node", "3", "--shift", "2",
     "--format", "json"),
    ("qchar", "standard", "--type", "A2", "--w", "[[1,0,1],[2,1,1]]"),
    ("verify", "tsystem", "--type", "A3", "--node", "2", "--k", "2", "--s",
     "1"),
    ("verify", "l1", "--type", "A3", "--format", "json"),
    ("cluster", "classify", "--type", "A2", "--level", "2"),
])
def test_traced_command_prints_what_the_plain_one_does(argv):
    rc, out, _ = qloop(*argv)
    trc, tout, terr = qloop(*argv, entry=(str(run.TRACER),))
    assert (trc, tout) == (rc, out) and rc == 0
    summary = tracer.summarize([run._read_trace(terr)])
    assert summary["spans"]["cli"]["calls"] == 1
    assert tracer.layer_metrics(summary)["trace.layer_frac"] > 0


def test_wrapper_returns_and_raises_like_the_function():
    rec = tracer.Recorder()
    obj = object()
    assert rec.wrap(lambda x: x, "f")(obj) is obj
    assert rec.wrap(lambda x: x, "g", leaf=True)(obj) is obj

    def boom():
        raise KeyError("x")
    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert [rec.names[s[0]] for s in rec.spans] == ["f", "boom"]


def test_self_time_subtracts_children():
    ticks = iter(range(0, 1000, 10))
    rec = tracer.Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap(lambda: None, "leaf", leaf=True)
    child = rec.wrap(lambda: leaf(), "child")
    root = rec.wrap(lambda: [child(), leaf()], "root")
    root()
    # clock: root 0, child 10, leaf 20-30, child end 40, leaf 50-60, root 70
    summary = tracer.summarize([rec.to_json()])
    spans = summary["spans"]
    assert spans["root"] == {"calls": 1, "total_s": 70e-9, "self_s": 30e-9}
    assert spans["child"]["self_s"] == pytest.approx(20e-9)
    assert spans["leaf"] == {"calls": 2, "total_s": 20e-9, "self_s": 20e-9}
    assert summary["edges"] == {(None, "root"): 1, ("root", "child"): 1,
                                ("child", "leaf"): 1, ("root", "leaf"): 1}
    assert summary["root_s"] == 70e-9


def test_run_without_a_source_tree_fails_without_a_result():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "tsystem-kr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT / "perfbench", capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
