"""Quick test of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench
"""
import json
import sys
import time

import pytest

import child
import jobs
import run

sys.path.insert(0, str(run.ROOT / "src"))
import treealg  # noqa: E402

TOY = {
    "relations": {"max_total": 4},
    "basis": {"max_degree": 4},
    "kernel": {"max_degree": 5, "decompose_degree": 4, "combos": 2},
    "action": {"nullity_total": 3, "nullity_word": 2, "bridge_degree": 2, "bridge_word": 2},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, sizes=TOY) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def test_every_workload_prints_the_end_to_end_metrics(capsys):
    assert set(jobs.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload in jobs.WORKLOADS:
        result = _result(capsys, workload, 0)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] % (2 * jobs.planned_ops(workload, TOY[workload])) == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == _units(SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics(capsys):
    result = _result(capsys, "relations", 1)
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(SPEC["per_layer"])
    for name in run.LAYERS:
        assert result["metrics"][name + ".calls"]["value"] > 0


def test_every_pass_makes_its_planned_checks():
    for workload in jobs.WORKLOADS:
        passed = jobs.Run(traced=False)
        jobs.run_job(workload, passed, treealg, 5, TOY[workload])
        assert (passed.attempted, passed.failed) == (jobs.planned_ops(workload, TOY[workload]), 0)


def test_wrong_expected_value_is_counted_as_failed(monkeypatch):
    wrong = list(jobs.FOREST_COUNTS)
    wrong[3] += 1
    monkeypatch.setattr(jobs, "FOREST_COUNTS", tuple(wrong))
    passed = jobs.Run(traced=False)
    jobs.run_job("kernel", passed, treealg, 1, TOY["kernel"])
    assert passed.attempted == jobs.planned_ops("kernel", TOY["kernel"])
    assert passed.failed == 1


def test_crashed_or_timed_out_child_fails_all_its_checks():
    size = TOY["basis"]
    tally = run.Tally()
    now = time.perf_counter()
    tally.add("basis", size, 2, run.run_child("basis", 1, "no-such-mode", size, now + 30))
    tally.add("basis", size, 2, run.run_child("basis", 1, "timed", size, now + 0.001))
    planned = 2 * jobs.planned_ops("basis", size)
    assert (tally.attempted, tally.failed) == (2 * planned, 2 * planned)


def test_times_are_rescaled_by_the_reference(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_NOMINAL_S", 0.01)
    result = {
        "import_s": 0.1,
        "reference_s": 0.02,
        "passes": [{"wall_s": 3.0, "loops": 200.0}, {"wall_s": 2.0, "loops": 100.0}],
    }
    run.rescale(result, 0.2)
    assert result["setup_raw_s"] == 0.2
    assert (result["setup_s"], result["import_s"]) == pytest.approx((0.1, 0.05))
    assert [p["ref_s"] for p in result["passes"]] == pytest.approx([2.0, 1.0])


def test_clock_counts_pieces_in_reference_loops_without_the_references(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(child.time, "perf_counter", lambda: now[0])
    references = iter([0.02] * 5 + [0.04, 0.02])

    def reference_s():
        value = next(references)
        now[0] += value
        return value

    monkeypatch.setattr(child, "reference_s", reference_s)
    clock = child.Clock()
    clock.start()
    now[0] += child.REFERENCE_EVERY_S / 2
    clock.checkpoint()
    assert clock.wall_s == 0.0
    now[0] += child.REFERENCE_EVERY_S
    clock.checkpoint()
    now[0] += 0.5
    clock.checkpoint(force=True)
    assert clock.wall_s == pytest.approx(1.5 * child.REFERENCE_EVERY_S + 0.5)
    assert clock.loops == pytest.approx(1.5 * child.REFERENCE_EVERY_S / 0.03 + 0.5 / 0.03)


def test_self_time_excludes_child_spans():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "c", "start": 5.0, "end": 9.0, "parent": 0},
    ]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
