"""One repetition of one benchmark job, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE SIZE_JSON

MODE is ``timed`` (a cold pass, then the identical warm pass), ``cold``
(the cold pass only) or ``traced`` (the cold pass with spans). The child
imports ``treealg`` from the checkout's ``src/``, prints ``ready``, runs
the passes and prints one JSON line: the import time and the reference
time right after ``ready``; per pass its wall time, its length in
reference loops, the checks attempted and failed and (when traced) its
spans; and the peak resident set size at exit.

The reference is a fixed loop of stdlib dict, tuple and Fraction work, the
kind of interpreter work treealg does. During a pass it runs, untimed,
before a call into treealg once REFERENCE_EVERY_S of the pass has gone by
since it last ran. Each piece of the pass between two references counts
as its wall time divided by the mean of those two reference times, so that
the parent can rescale the pass to a host of fixed speed (see ``run.py``).
"""
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODES = {"timed": (False, 2), "cold": (False, 1), "traced": (True, 1)}
REFERENCE_EVERY_S = 0.1


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    return time.perf_counter() - t0


class Clock:
    """Wall time of a pass, without the references run during it, and its
    length in reference loops."""

    def __init__(self):
        self.first_reference_s = statistics.median(reference_s() for _ in range(5))
        self._reference_s = self.first_reference_s

    def start(self) -> None:
        self.wall_s = 0.0
        self.loops = 0.0
        self._mark = time.perf_counter()

    def checkpoint(self, force: bool = False) -> None:
        """End the current piece of the pass if it is REFERENCE_EVERY_S long,
        or if ``force``, and time the reference."""
        piece = time.perf_counter() - self._mark
        if piece < REFERENCE_EVERY_S and not force:
            return
        reference = reference_s()
        self.wall_s += piece
        self.loops += piece / ((self._reference_s + reference) / 2)
        self._reference_s = reference
        self._mark = time.perf_counter()


def main(argv: list[str]) -> int:
    workload, seed, mode, size = argv[0], int(argv[1]), argv[2], json.loads(argv[3])
    traced, passes = MODES[mode]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import treealg

    import_s = time.perf_counter() - start
    if Path(treealg.__file__).resolve().parent != SRC / "treealg":
        print(f"imported treealg from {treealg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs

    print("ready", flush=True)
    clock = Clock()
    results = []
    for _ in range(passes):
        run = jobs.Run(traced, clock.checkpoint)
        clock.start()
        jobs.run_job(workload, run, treealg, seed, size)
        clock.checkpoint(force=True)
        results.append({
            "wall_s": clock.wall_s,
            "loops": clock.loops,
            "attempted": run.attempted,
            "failed": run.failed,
            "spans": run.spans,
        })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "import_s": import_s,
        "reference_s": clock.first_reference_s,
        "passes": results,
        "peak_rss_mb": peak_rss_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
