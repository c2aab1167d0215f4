"""gkmcalc benchmark: closed-loop CLI workloads with one client.

    python3 perfbench/run.py --workload {localize,ring,chambers} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each op is one in-process ``gkmcalc.cli.main(argv)`` call on
files the seeded generator wrote, with stdout captured.  The untraced run
repeats whole cycles of the workload's ops until at least S seconds of op
time and MIN_OPS ops have passed, checks every output outside the timed
region, and prints the end-to-end metrics.  Every duration is calibrated
against a fixed kernel (see Clock), so times read as on a host where that
kernel takes KERNEL_SECONDS.  The traced run executes one cycle untraced
and one cycle traced (so every count repeats exactly; its per-layer
numbers also cover the traced re-generation of the inputs) and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; ``attempted`` is the number of
timed ops, the sample count behind the percentiles.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference_digests.json"
SETUP_REPEATS = 5
MIN_OPS = 100
# One run of the calibration kernel takes this long on the reference host.
KERNEL_SECONDS = 2e-3
KERNEL_STEPS = 600
WINDOW_SECONDS = 0.5

sys.path.insert(0, str(HERE))
from checks import check  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def import_package():
    """Fresh import of gkmcalc from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "gkmcalc" or m.startswith("gkmcalc.")]:
        del sys.modules[name]
    gk = importlib.import_module("gkmcalc")
    importlib.import_module("gkmcalc.cli")
    if Path(gk.__file__).resolve().parent != ROOT / "src" / "gkmcalc":
        raise ImportError(f"gkmcalc imported from {gk.__file__}, not from src/")
    return gk


def kernel_seconds() -> float:
    """Time one run of a fixed pure-Python Fraction kernel takes right now."""
    acc, step = Fraction(0), Fraction(3, 7)
    start = perf_counter()
    for i in range(KERNEL_STEPS):
        acc += step * Fraction(i, 13)
    return perf_counter() - start


class Clock:
    """Timed intervals, each between two runs of the calibration kernel.

    The shared host's speed swings by up to 2x, sometimes for seconds and
    sometimes several times a second.  Each interval is scaled by
    KERNEL_SECONDS over the mean kernel time of the kernel runs from
    WINDOW_SECONDS before it to WINDOW_SECONDS after it, so durations read
    as on a host of constant speed and runs made minutes apart stay
    comparable.
    """

    def __init__(self):
        self.kernel: list[float] = []
        self.when: list[float] = []
        self.raw: list[float] = []
        self._sample()

    def _sample(self) -> None:
        self.kernel.append(kernel_seconds())
        self.when.append(perf_counter())

    def add(self, spent: float) -> None:
        self.raw.append(spent)
        self._sample()

    def scaled(self) -> list[float]:
        out = []
        for i, spent in enumerate(self.raw):
            lo = bisect.bisect_left(self.when, self.when[i] - WINDOW_SECONDS)
            hi = bisect.bisect_right(self.when, self.when[i + 1] + WINDOW_SECONDS)
            out.append(spent * KERNEL_SECONDS / statistics.fmean(self.kernel[lo:hi]))
        return out


def setup(workload: str, seed: int, work: Path, repeats: int):
    """Import and generate ``repeats`` times; return the last ops and every duration."""
    clock = Clock()
    for i in range(repeats):
        start = perf_counter()
        gk = import_package()
        ops = generate(gk, workload, work / f"setup{i}", seed)
        clock.add(perf_counter() - start)
    return gk, ops, clock.scaled()


def run_op(main, op):
    """One timed CLI call; returns (seconds, exit status, stdout, stderr)."""
    if op.basis_dir:
        shutil.rmtree(op.basis_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(op.argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        status = "traceback"
        err.write(traceback.format_exc())
    spent = perf_counter() - start
    return spent, status, out.getvalue(), err.getvalue()


def output_digest(op, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if op.basis_dir:
        for path in sorted(Path(op.basis_dir).glob("*")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Outcomes:
    """Per-op results of a run, checked outside the timed region.

    An op fails on a nonzero exit, a traceback, stdout that is not JSON, a
    failed output check, output that differs between repetitions, or, at
    the reference seed, output that differs from the recorded digest.  Every
    execution of a failing op counts as failed.
    """

    def __init__(self, ops, reference: dict[str, str]):
        self.ops = {op.id: op for op in ops}
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.stdout: dict[str, str] = {}
        self.executions: dict[str, int] = {}
        self.problems: dict[str, list[str]] = {}

    def problem(self, op_id: str, text: str) -> None:
        self.problems.setdefault(op_id, []).append(text)

    def record(self, op, status, stdout: str, stderr: str) -> str:
        """Fold one execution in; returns its output digest."""
        self.executions[op.id] = self.executions.get(op.id, 0) + 1
        digest = output_digest(op, stdout)
        if status != 0:
            self.problem(op.id, f"exit status {status}: {stderr.strip()[-300:]}")
        elif "Traceback" in stderr:
            self.problem(op.id, "traceback on stderr")
        elif op.id in self.digests:
            if self.digests[op.id] != digest:
                self.problem(op.id, "output differs between repetitions")
        else:
            self.digests[op.id] = digest
            self.stdout[op.id] = stdout
            try:
                for text in check(op, json.loads(stdout)):
                    self.problem(op.id, text)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.problem(op.id, f"output is not the expected JSON: {exc!r}")
            if self.reference and self.reference.get(op.id) != digest:
                self.problem(op.id, "output differs from the reference digest")
        return digest

    def finish(self) -> None:
        """Checks across ops: series against formula residues, the op list itself."""
        pairs: dict[str, list[str]] = {}
        for op_id, op in self.ops.items():
            if op.kind == "residue":
                pairs.setdefault(op.info["pair_id"], []).append(op_id)
        for ids in pairs.values():
            if len({self.stdout.get(i) for i in ids}) != 1:
                for i in ids:
                    self.problem(i, "series and formula residues differ")
        if self.reference and set(self.reference) != set(self.ops):
            self.problem("*", "op list differs from the reference")

    def failed(self) -> int:
        return sum(self.executions.get(op_id, 0) for op_id in self.problems)

    def result(self, attempted: int, metrics: dict) -> dict:
        for op_id, problems in sorted(self.problems.items()):
            print(f"FAILED {op_id}: {'; '.join(problems[:3])}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": self.failed(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def reference_digests(workload: str, seed: int) -> dict[str, str]:
    """Digests recorded at the reference seed; other seeds have none."""
    if seed != REFERENCE_SEED:
        return {}
    return json.loads(REFERENCE_FILE.read_text())[workload]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def untraced(args, work: Path) -> dict:
    gk, ops, setup_times = setup(args.workload, args.seed, work, SETUP_REPEATS)
    main = gk.cli.main
    outcomes = Outcomes(ops, reference_digests(args.workload, args.seed))
    clock = Clock()
    while sum(clock.raw) < args.seconds or len(clock.raw) < MIN_OPS:
        for op in ops:
            spent, status, stdout, stderr = run_op(main, op)
            clock.add(spent)
            outcomes.record(op, status, stdout, stderr)
    outcomes.finish()
    if "tracing" in sys.modules:
        outcomes.problem("*", "the untraced run imported the tracing module")
    latencies = sorted(clock.scaled())
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return outcomes.result(len(latencies), metrics)


def traced(args, work: Path) -> dict:
    gk, ops, _ = setup(args.workload, args.seed, work, 1)
    main = gk.cli.main
    outcomes = Outcomes(ops, reference_digests(args.workload, args.seed))
    plain = {}
    plain_clock = Clock()
    for op in ops:
        spent, status, stdout, stderr = run_op(main, op)
        plain_clock.add(spent)
        plain[op.id] = outcomes.record(op, status, stdout, stderr)

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    generate(gk, args.workload, work / "traced-setup", args.seed)
    before = tracer.snapshot()
    clock = Clock()
    for op in ops:
        spent, status, stdout, stderr = run_op(main, op)
        clock.add(spent)
        if outcomes.record(op, status, stdout, stderr) != plain[op.id]:
            outcomes.problem(op.id, "stdout differs with tracing on")
    outcomes.finish()
    coverage = tracer.below_main_seconds(before) / sum(clock.raw)
    values = tracer.metrics(sum(clock.scaled()) / sum(plain_clock.scaled()), coverage)
    units = dict(tracing.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    return outcomes.result(2 * len(ops), metrics)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gkmcalc" / "cli.py").is_file():
        print(f"error: no gkmcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        doc = (traced if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
