"""The treealg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: one child interpreter at a time, each a fresh
process, so every repetition starts with empty memo tables, as every CLI
invocation does. Children are started until the next one would end after
``--seconds``.

``--trace 0`` measures the named workload: per child the set-up time (spawn
until ``import treealg`` is done and the child is ready), the cold pass, the
identical warm pass in the same process, and the peak RSS. ``--trace 1``
runs every workload once traced and once untraced per round, so that every
per-layer span is measured, and prints each span's self time, calls and
result terms, and the tracing overhead.

Times are reported in reference seconds: wall time rescaled to a host on
which the reference loop of ``child.py`` takes REFERENCE_NOMINAL_S. The
child times that loop right after it is ready, to rescale the set-up, and
every REFERENCE_EVERY_S during a pass, to rescale each piece of the pass by
the reference times at its two ends; the reference runs themselves are not
counted. On a shared 2-core host, other tenants slow a process down by up
to 2x, for fractions of a second to minutes at a time, and the slowdown
hits the reference loop and treealg alike: the same job's raw wall times
spread by half their median between runs, the rescaled times by a few
percent. The raw wall times are printed beside the rescaled ones. Every
metric is the median over the children of the run.

In both modes every result is checked exactly; a wrong result, an
exception, a crashed or timed-out child counts as failed checks. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPANS_FILE = HERE / "out" / "spans.json"
CHILD_TIMEOUT_S = 60.0
# Every run must end well within the 180 s a run may take: no child starts
# after MAX_SECONDS, and none runs past HARD_LIMIT_S.
MAX_SECONDS = 90
HARD_LIMIT_S = 150.0
# Time of the reference loop of child.py on the host that times are rescaled
# to; about its fastest time on a 2-core x86-64 host with Python 3.11.
REFERENCE_NOMINAL_S = 0.010

# Per-layer spans: the end-to-end metrics each should move, and whether its
# call returns a value with a term count.
LAYERS = {
    "relations.build_fmn": ("relations.wall_s relations.warm_s", True),
    "diamond.sigma": ("relations.wall_s relations.warm_s kernel.wall_s", True),
    "rtm.rho_is_zero_on_x": ("relations.wall_s relations.warm_s", False),
    "relations.verify_r_identity": ("relations.wall_s relations.warm_s", False),
    "diamond.sigma_forest": ("basis.wall_s kernel.wall_s", True),
    "linalg.basis_matrix": ("basis.wall_s", True),
    "linalg.RationalMatrix.rank": ("basis.wall_s", False),
    "linalg.BitMatrix.rank": ("none (GF(2) is ~0.1% of basis.wall_s)", False),
    "linalg.check_mod2_invertible": ("basis.wall_s", False),
    "trees.enumerate_forests": ("kernel.wall_s", True),
    "linalg.sigma_kernel": ("kernel.wall_s", True),
    "linalg.decompose": ("kernel.wall_s", True),
    "rtm.rtm_apply": ("action.wall_s action.peak_rss_mb", True),
    "hopf.coproduct": ("action.wall_s action.peak_rss_mb", True),
    "diamond.diamond": ("action.wall_s action.peak_rss_mb", True),
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {"setup.import_treealg.s": "s"}
    for name, (_, has_terms) in LAYERS.items():
        units[name + ".s"] = "s"
        units[name + ".calls"] = "count"
        if has_terms:
            units[name + ".terms"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tally:
    """Checks attempted and failed over all children of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload: str, size: dict, passes: int, result: dict | None) -> None:
        if result is None:
            planned = passes * jobs.planned_ops(workload, size)
            self.attempted += planned
            self.failed += planned
            return
        for p in result["passes"]:
            self.attempted += p["attempted"]
            self.failed += p["failed"]


def _wait_ready(proc: subprocess.Popen, deadline: float) -> float | None:
    """Time at which the child printed its ready line; None if it exited or
    the deadline passed first."""
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            return None
        chunk = proc.stdout.read(1)
        if not chunk:
            return None
        line += chunk
    return time.perf_counter() if line == b"ready\n" else None


def run_child(workload: str, seed: int, mode: str, size: dict, hard_stop: float) -> dict | None:
    """Run one child to its end, killing it after CHILD_TIMEOUT_S or at
    ``hard_stop``; its result, rescaled, or None if it crashed, timed out or
    printed no result."""
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode, json.dumps(size)]
    start = time.perf_counter()
    deadline = min(start + CHILD_TIMEOUT_S, hard_stop)
    out = b""
    with subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0
    ) as proc:
        try:
            ready = _wait_ready(proc, deadline)
            if ready is not None:
                out = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.001))[0]
        except subprocess.TimeoutExpired:
            ready = None
        finally:
            if proc.poll() is None:
                proc.kill()
    try:
        if ready is None or proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        result = json.loads(out.decode().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        print(f"child {workload} {mode} failed: {exc!r}", file=sys.stderr)
        return None
    return rescale(result, ready - start)


def rescale(result: dict, setup_raw_s: float) -> dict:
    """Add to a child's result the raw set-up time ``setup_raw_s``, the set-up
    and import times rescaled by the reference time right after them
    (``setup_s``, ``import_s``), and per pass its rescaled time ``ref_s``
    and the ``scale`` from its wall time to that."""
    setup_scale = REFERENCE_NOMINAL_S / result["reference_s"]
    result["setup_raw_s"] = setup_raw_s
    result["setup_s"] = setup_raw_s * setup_scale
    result["import_s"] *= setup_scale
    for passed in result["passes"]:
        passed["ref_s"] = passed["loops"] * REFERENCE_NOMINAL_S
        passed["scale"] = passed["ref_s"] / passed["wall_s"]
    return result


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Spans of
    one pass run on one thread, so the children of a span never overlap."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def repetitions(seconds: int):
    """Yield the time no child may outlive, once per repetition, until the
    next repetition, if it took the median time of those so far, would end
    after ``seconds``."""
    start = time.perf_counter()
    stop, hard_stop = start + seconds, start + HARD_LIMIT_S
    durations: list[float] = []
    while not durations or time.perf_counter() + statistics.median(durations) <= stop:
        t0 = time.perf_counter()
        yield hard_stop
        durations.append(time.perf_counter() - t0)


def measure(workload: str, seed: int, seconds: int, size: dict):
    """Untraced run of one workload: per-metric samples, one per child, and
    the raw wall times of set-up and the cold and warm passes."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "warm_s": []}
    tally = Tally()
    for hard_stop in repetitions(seconds):
        result = run_child(workload, seed, "timed", size, hard_stop)
        tally.add(workload, size, 2, result)
        if result is not None:
            cold, warm = result["passes"]
            samples["setup_s"].append(result["setup_s"])
            samples["wall_s"].append(cold["ref_s"])
            samples["warm_s"].append(warm["ref_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            raw["setup_s"].append(result["setup_raw_s"])
            raw["wall_s"].append(cold["wall_s"])
            raw["warm_s"].append(warm["wall_s"])
    return samples, tally, raw


def measure_traced(seed: int, seconds: int, sizes: dict):
    """Traced run over every workload: per-metric samples, one per round
    (one per traced child for the import time), and all spans, each tagged
    with the id of the traced pass it belongs to."""
    units = per_layer_units()
    samples: dict[str, list[float]] = {name: [] for name in units}
    all_spans: list[dict] = []
    walls: dict[str, list[float]] = {"traced": [], "cold": []}
    tally = Tally()
    for round_no, hard_stop in enumerate(repetitions(seconds)):
        totals = {name: 0.0 for name in units}
        round_walls = {"traced": 0.0, "cold": 0.0}
        for workload in jobs.WORKLOADS:
            size = sizes[workload]
            traced = run_child(workload, seed, "traced", size, hard_stop)
            untraced = run_child(workload, seed, "cold", size, hard_stop)
            tally.add(workload, size, 1, traced)
            tally.add(workload, size, 1, untraced)
            if traced is None or untraced is None:
                continue
            samples["setup.import_treealg.s"].append(traced["import_s"])
            passed = traced["passes"][0]
            round_walls["traced"] += passed["ref_s"]
            round_walls["cold"] += untraced["passes"][0]["ref_s"]
            run_id = f"{workload}-{seed}-{round_no}"
            for span, own in zip(passed["spans"], self_times(passed["spans"])):
                span["run"] = run_id
                all_spans.append(span)
                name = span["name"]
                if name in LAYERS:
                    totals[name + ".s"] += own * passed["scale"]
                    totals[name + ".calls"] += 1
                    if LAYERS[name][1]:
                        totals[name + ".terms"] += span["terms"]
        del totals["setup.import_treealg.s"], totals["trace.overhead_s"]
        for name, value in totals.items():
            samples[name].append(value)
        for mode, wall in round_walls.items():
            walls[mode].append(wall)
    samples["trace.overhead_s"].append(
        statistics.median(walls["traced"]) - statistics.median(walls["cold"])
    )
    return samples, tally, all_spans


def _print_layer_table(samples: dict[str, list[float]]) -> None:
    print(f"{'span':32} {'calls':>7} {'self_s':>10} {'terms':>9}  should move")
    for name, (moves, has_terms) in LAYERS.items():
        calls = statistics.median(samples[name + ".calls"])
        own = statistics.median(samples[name + ".s"])
        terms = f"{statistics.median(samples[name + '.terms']):9.0f}" if has_terms else " " * 9
        print(f"{name:32} {calls:7.0f} {own:10.4f} {terms}  {moves}")
    own = statistics.median(samples["setup.import_treealg.s"])
    print(f"{'setup.import_treealg':32} {'':7} {own:10.4f} {'':9}  setup_s")
    print("self times are in reference seconds, medians over rounds;")
    print("spans are taken around the benchmark's calls into each layer's public functions;")
    print("sigma_forest runs before basis_matrix and sigma_kernel on the same forests, so those")
    print("spans hold mostly linalg work. words has no span of its own: its time is inside the")
    print("diamond, rtm and relations spans.")


def _quartiles(values: list[float]) -> str:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return " ".join(f"{q:.4f}" for q in quartiles)


def main(argv: list[str] | None = None, sizes: dict = jobs.SIZES) -> int:
    parser = argparse.ArgumentParser(description="treealg benchmark")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not (ROOT / "src" / "treealg" / "__init__.py").is_file():
        print(f"perfbench: no treealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        samples, tally, spans = measure_traced(args.seed, args.seconds, sizes)
        units = per_layer_units()
    else:
        samples, tally, raw = measure(args.workload, args.seed, args.seconds, sizes[args.workload])
        units = END_TO_END_UNITS
    share = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  ops {tally.attempted}  "
          f"ops_failed {share:.4f} ({tally.failed})")
    if any(not values for values in samples.values()):
        print("perfbench: no child finished, so there are no timings", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in samples.items()
    }
    if args.trace:
        _print_layer_table(samples)
        print(f"trace.overhead_s {metrics['trace.overhead_s']['value']:.4f} s "
              "(median traced round minus median untraced round)")
        SPANS_FILE.parent.mkdir(exist_ok=True)
        SPANS_FILE.write_text(json.dumps(spans))
    else:
        for name, values in samples.items():
            print(f"{name:12} {metrics[name]['value']:10.4f} {units[name]:3} "
                  f"({len(values)} children, quartiles {_quartiles(values)}"
                  + (f"; raw wall quartiles {_quartiles(raw[name])})" if name in raw else ")"))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
