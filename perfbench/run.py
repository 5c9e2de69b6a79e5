"""Benchmark of ``cubeshell solve`` on seeded workloads.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload uniform3d --seed 1 --seconds 25 --trace 0

One run, for one workload and seed:

1. replays small instances of the workload against the brute-force oracle
   (exact equality of the optimum) and self-tests the answer checker;
2. writes sixteen timed instances to ``perfbench/work/``, makes one untimed
   warm-up import process, and repeats rounds, cycling through the
   instances, until ``--seconds`` have passed. With ``--trace 0`` a round
   is one fresh process that imports ``cubeshell.cli`` and exits
   (``setup_s``), two ``python -m cubeshell.cli solve FILE`` processes
   (``cli_s``, ``peak_rss_mb``), both kinds started through ``launch.py``,
   and four ``cubeshell.solve`` calls in this warm process (``solve_s``).
   With ``--trace 1`` a round is an in-process CLI solve without spans and
   one with spans around the calls into each module; the ratio of the two
   is the tracing overhead;
3. checks every answer with ``checker.py`` and, in 3D, that ``decide`` is
   true at r* and false at r* + 1e-9.

Runs are sequential and single-process. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, each the mean
over the instances of the instance's median (``setup_s``, which has no
instance, is the median of its samples), and with ``--trace 1`` the
per-layer metrics, medians over the run's traced calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from checker import Checker, answer_from_json, answer_from_result, self_test
from spans import Tracer
from workloads import WORKLOADS, to_text

OP_TIMEOUT_S = 120
# Rounds cycle through this many timed instances. A timed metric is the
# mean over instances of each instance's median: the median stands against
# bursts of the machine, the mean over many instances against the quirks
# of a few (one instance's solve can take 25% longer than the next one's).
INSTANCES = 16
# Per round with --trace 0: CLI processes and library solves. Many short
# samples give a steadier median than a few long ones.
CLI_PER_ROUND = 2
SOLVES_PER_ROUND = 4
SHARP_STEP = Fraction(1, 10**9)

UNITS = {
    "cli_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


class Launcher:
    """Runs commands through ``launch.py``, so their peak RSS is their own."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)

    def run(self, argv, env, out_path: Path):
        """Run argv to completion; (exit code, wall seconds, peak RSS MB).

        stdout goes to out_path and stderr to out_path with ".err" appended.
        """
        req = {"argv": argv, "env": env, "stdout": str(out_path),
               "stderr": f"{out_path}.err", "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launch.py exited")
        reply = json.loads(line)
        return reply["code"], reply["seconds"], reply["maxrss_kb"] / 1024


class Run:
    """Counts operations and collects faults for one benchmark run."""

    def __init__(self, cubeshell, workload, seed: int):
        self.cs = cubeshell
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def attempt(self, what: str, op):
        """Run op; on an exception count a failed operation and return None."""
        self.attempted += 1
        try:
            return op()
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None

    def sharp(self, ps, r: Fraction) -> bool:
        """decide(r*) holds and decide(r* + 1e-9) does not."""
        psn, _ = self.cs.normalize(ps)
        try:
            return (self.cs.decide(psn, r)[0]
                    and not self.cs.decide(psn, r + SHARP_STEP)[0])
        except self.cs.CubeshellError:
            return False

    def check(self, what: str, checker: Checker, ps, answer) -> None:
        faults = checker.faults(answer)
        if self.wl.dim == 3 and not self.sharp(ps, answer.inner):
            faults.append("decide not sharp at r*")
        if faults:
            self.faults.append(f"{what}: {', '.join(faults)}")

    def replay(self) -> None:
        """Small instances of the workload: solver against the oracle."""
        cs = self.cs
        oracle = cs.exact_oracle_3d if self.wl.dim == 3 else cs.exact_oracle_2d
        for k, n in enumerate(self.wl.replay):
            pts = self.wl.make(n, self.seed * 32 + k)
            ps = cs.PointSet(tuple(pts), self.wl.dim)
            what = f"replay n={n}"

            def solve_both():
                return cs.solve(ps), oracle(cs.normalize(ps)[0])[0]

            got = self.attempt(what, solve_both)
            if got is None:
                continue
            res, want = got
            if res.shell.inner_radius != want:
                self.faults.append(f"{what}: inner radius "
                                   f"{res.shell.inner_radius} != oracle {want}")
            answer = answer_from_result(res)
            self.check(what, Checker(pts, self.seed), ps, answer)
            if k == 0 and not self.faults:
                self.faults += [f"checker self-test: {p}"
                                for p in self_test(pts, answer, self.seed)]


def aggregate(by_instance: dict) -> float:
    """Mean over instances of the median of each instance's samples."""
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def measure(run: Run, root: Path, seconds: float, trace: bool, launcher):
    """Timed rounds on full-size instances; returns the metrics dict."""
    cs, wl = run.cs, run.wl
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    # numpy's OpenBLAS starts a worker thread per core at import. The
    # program makes no BLAS call, and on two cores the pool's start-up took
    # 0 to 70 ms per process, by what else ran on the other core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    work = root / "perfbench" / "work"
    work.mkdir(exist_ok=True)
    out = work / f"{wl.name}.out"
    # metric -> instance (None for the import) -> samples
    samples: dict[str, dict[int | None, list[float]]] = {}

    def sample(name, value, i=None):
        samples.setdefault(name, {}).setdefault(i, []).append(value)

    def process(name, args, i=None):
        """Run python with args, sample its time as name; (stdout, RSS MB)."""
        code, dt, rss = launcher.run([sys.executable, *args], env, out)
        if code != 0:
            raise RuntimeError(f"exit code {code}: "
                               f"{Path(f'{out}.err').read_text()}")
        sample(name, dt, i)
        return out.read_text(), rss

    instances = []
    for i in range(INSTANCES):
        pts = wl.make(wl.n, 32 * run.seed + 16 + i)
        path = work / f"{wl.name}-{i}.txt"
        path.write_text(to_text(pts), encoding="utf-8")
        instances.append((pts, ["solve", str(path)], cs.load_points(str(path))))
    answers = []
    tracer = Tracer()
    layers = []

    def cli_in_process(cli_args) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cs.cli.main(cli_args)
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return buf.getvalue()

    def timed(name, i, op, *args):
        t0 = time.perf_counter()
        result = op(*args)
        sample(name, time.perf_counter() - t0, i)
        return result

    def from_cli(text: str):
        payload = json.loads(text)
        if payload.get("n") != wl.n or payload.get("dimension") != wl.dim:
            run.faults.append("cli: wrong n or dimension in the output")
        return answer_from_json(payload)

    def cli_process(i):
        text, rss = process("cli_s", ["-m", "cubeshell.cli", *instances[i][1]], i)
        sample("peak_rss_mb", rss, i)
        return from_cli(text)

    if not trace:
        # The first process of a run pays for cold file caches; no user
        # pays that on every call, so it is not timed.
        run.attempt("warm-up import",
                    lambda: process("warmup_s", ["-c", "import cubeshell.cli"]))
    t_start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        r = rounds
        rounds += 1
        if trace:
            i = r % INSTANCES
            _, cli_args, _ = instances[i]
            got = [(i, run.attempt("in-process cli", lambda: from_cli(
                timed("plain_s", i, cli_in_process, cli_args))))]
            tracer.reset()
            tracer.install()
            try:
                got.append((i, run.attempt("traced in-process cli", lambda: from_cli(
                    timed("traced_s", i, cli_in_process, cli_args)))))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
        else:
            run.attempt("import",
                        lambda: process("setup_s", ["-c", "import cubeshell.cli"]))
            got = []
            for k in range(CLI_PER_ROUND):
                i = (r * CLI_PER_ROUND + k) % INSTANCES
                got.append((i, run.attempt("cli", lambda: cli_process(i))))
            for k in range(SOLVES_PER_ROUND):
                i = (r * SOLVES_PER_ROUND + k) % INSTANCES
                got.append((i, run.attempt("library", lambda: answer_from_result(
                    timed("solve_s", i, cs.solve, instances[i][2])))))
        answers += [(i, answer) for i, answer in got if answer is not None]

    for i, (pts, _, ps) in enumerate(instances):
        checker = Checker(pts, run.seed)
        for answer in dict.fromkeys(a for j, a in answers if j == i):
            run.check(f"instance {i}", checker, ps, answer)

    for name, by_instance in samples.items():
        print(f"{name}: n={sum(map(len, by_instance.values()))} "
              f"value={aggregate(by_instance):.6g} samples by instance="
              f"{ {i: [round(v, 6) for v in vs] for i, vs in by_instance.items()} }")
    if trace:
        traced, plain = (aggregate(samples[k]) if k in samples else None
                         for k in ("traced_s", "plain_s"))
        if traced and plain:
            print(f"tracing overhead: {traced / plain - 1:+.2%} (in-process "
                  f"cli {traced:.4f} s traced, {plain:.4f} s plain); "
                  f"{len(tracer.spans)} spans and {tracer.paused:.4f} s of "
                  f"counters in the last traced call")
        if not layers:
            return None
        tracer.dump(work / f"{wl.name}-spans.json")
        # median_low keeps a count a whole number of the run's own counts
        return {name: (statistics.median_low([m[name] for m in layers]),
                       layer_unit(name))
                for name in layers[0]}
    if any(name not in samples for name in UNITS):
        return None
    return {name: (aggregate(samples[name]), unit) for name, unit in UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cubeshell" / "cli.py").is_file():
        print("perfbench: src/cubeshell not found; run from the root of a "
              "cubeshell checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import cubeshell
    import cubeshell.cli

    run = Run(cubeshell, WORKLOADS[args.workload], args.seed)
    run.replay()
    with Launcher() as launcher:
        metrics = measure(run, root, args.seconds, bool(args.trace), launcher)
    for fault in run.faults:
        print(f"FAULT {fault}")
    if metrics is None:
        print("perfbench: no operation completed; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.faults,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
