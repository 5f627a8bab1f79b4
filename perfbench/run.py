#!/usr/bin/env python3
"""Benchmark of the ``treebalance`` command line, end to end and per layer.

    python3 perfbench/run.py --workload compute-newick --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  One client runs whole CLI invocations one at a
time in a closed loop, so interpreter start-up counts.  Every output is
checked against the benchmark's own oracle.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Generated inputs, outputs and spans go to
``.perfbench-work/`` in the checkout.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import gen
import oracle
import tracer

WORKLOADS = {
    "compute-newick": lambda seed, work: gen.compute_newick(seed, work),
    "extremal-enum": lambda seed, work: gen.extremal_enum(seed),
    "maxvalue-table": lambda seed, work: gen.maxvalue_table(seed),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.render_s": "s",
    "newick.parse_s": "s",
    "newick.bytes_parsed": "bytes",
    "newick.write_s": "s",
    "newick.lines_written": "count",
    "tree.canonical_s": "s",
    "tree.canonical_peak_mb": "MB",
    "stairs2.direct_s": "s",
    "stairs2.recursive_s": "s",
    "stairs2.internal_nodes": "count",
    "stairs2.den_bits": "bits",
    "stairs2.peak_mb": "MB",
    "shapes.enumerate_s": "s",
    "shapes.enumerated": "count",
    "extremal.score_s": "s",
    "extremal.max_recursive_s": "s",
    "extremal.max_closed_s": "s",
    "extremal.max_even_s": "s",
    "families.build_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# A CLI call that does no work: interpreter start, import, argument parsing.
# One runs at every gap between operations, all through the run.
SETUP_ARGV = ["enumerate", "--n", "1"]
LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
# Every process is killed once a run has lasted this long, well inside the
# 180 s a run may take; killed operations count as failed.
RUN_LIMIT_S = 170.0


# Typical calibration block time on the reference machine (a 2-vCPU Xeon
# VM, Python 3.11.7); time metrics are reported at that speed.
CAL_REF_S = 0.006
# One calibration block runs this often, all through the run.
CAL_PERIOD_S = 0.2


def calibration_block() -> float:
    """CPU seconds this thread spends on a fixed block of stdlib work.

    The block does exact fractions, tuples, a dict and strings, and uses
    nothing from the program, so a change to the program cannot move it.
    CPU time, not wall time, so that waiting for a core the pool workers
    hold does not count as a slow machine.
    """
    gc.disable()
    try:
        start = time.thread_time()
        total = Fraction(0)
        for k in range(1, 300):
            total += Fraction(1, k)
        nodes = [(i, None) if i % 2 else (i, (i,)) for i in range(1 << 12)]
        seen = {}
        while nodes:
            node = nodes.pop()
            seen[id(node)] = node[0]
        ",".join(f"t{i}:{i * 7 % 1000}" for i in range(7500)).count(",")
        return time.thread_time() - start
    finally:
        gc.enable()


class SpeedSampler(threading.Thread):
    """Times a calibration block every CAL_PERIOD_S while the run goes on.

    The host's speed drifts by up to a factor of two within seconds to
    minutes as its neighbours' load changes, and every operation slows
    with it.  Sampling at a fixed period, also while an operation runs,
    weighs every stretch of the run alike, however long its operations;
    the blocks' mean time measures the speed the run saw, and time metrics
    are scaled by CAL_REF_S over it.  The blocks use about 3 % of one core,
    on the core the client would otherwise leave idle.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()
        self.start()

    def run(self) -> None:
        while True:
            self.samples.append(calibration_block())
            if self._done.wait(CAL_PERIOD_S):
                return

    def finish(self) -> "list[float]":
        self._done.set()
        self.join()
        return self.samples


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts CLI and tracer processes one at a time, from one client."""

    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.sampler = SpeedSampler()
        self.setup_walls: list[float] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "TREEBALANCE_MAX_ENUM"}
        self.env["PYTHONPATH"] = self.src

    def _spawn(self, cmd: "list[str]") -> "tuple[float, float, int, str, str]":
        """Run ``cmd``; return wall seconds, peak RSS in MB, exit code, stdout, stderr.

        The command starts from launch.py, which times it and keeps the
        client's own memory out of its peak RSS (see there).
        """
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        report_path = os.path.join(self.work, "launch.txt")
        if os.path.exists(report_path):
            os.remove(report_path)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # A session of its own, so that a kill at the deadline also
            # reaches the command and verify's pool workers.
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-I", "-S", LAUNCH, report_path, *cmd],
                                    stdout=out, stderr=err, env=self.env, start_new_session=True)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                     _kill_group, (proc.pid,))
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
        if proc.returncode != 0 or not os.path.exists(report_path):
            # Killed at the deadline: the client's own timing must do.
            wall, rc, rss_kb = time.perf_counter() - start, proc.returncode or -signal.SIGKILL, 0
        else:
            with open(report_path, encoding="utf-8") as fh:
                wall_s, rc_s, rss_s = fh.read().split()
            wall, rc, rss_kb = float(wall_s), int(rc_s), int(rss_s)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, rss_kb / 1024, rc, stdout, stderr

    def setup(self, record: bool = True) -> None:
        """Time one CLI call that does no work."""
        wall, _, rc, out, err = self.cli(SETUP_ARGV)
        if rc != 0 or out != "1\n":
            raise RuntimeError(f"set-up call failed (exit {rc}): {err.strip()[-500:]}")
        if record:
            self.setup_walls.append(wall)

    def setup_s(self) -> float:
        """Median raw wall time of the set-up calls so far."""
        return statistics.median(self.setup_walls)

    def speed_scale(self) -> float:
        """Factor from this run's seconds to reference-speed seconds; ends sampling."""
        return CAL_REF_S / statistics.fmean(self.sampler.finish())

    def cli(self, argv: "list[str]"):
        return self._spawn([sys.executable, "-m", "treebalance", *argv])

    def in_process(self, op: gen.Op, mode: str) -> dict:
        """Run ``op`` in-process in a fresh tracer process; return its report."""
        job = {
            "src": self.src,
            "op_id": op.op_id,
            "argv": op.argv,
            "mode": mode,
            "sink": os.path.join(self.work, "inproc-out.txt"),
            "out": os.path.join(self.work, "inproc.json"),
        }
        job_path = os.path.join(self.work, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        here = os.path.dirname(os.path.abspath(__file__))
        _, _, rc, _, err = self._spawn([sys.executable, os.path.join(here, "tracer.py"), job_path])
        if rc != 0:
            raise RuntimeError(f"tracer process failed on {op.op_id}: {err.strip()[-500:]}")
        with open(job["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        with open(job["sink"], encoding="utf-8") as fh:
            report["stdout"] = fh.read()
        return report


def tail(samples: "list[float]") -> "tuple[int, float] | None":
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100 * k // len(samples), sorted(samples)[k - 1]


def timed_run(runner, ops, expected, seconds: float) -> dict:
    """Repeat the workload's operation list until ``seconds`` have passed."""
    pass_walls: list[float] = []
    pass_units: list[float] = []
    pass_rss: list[float] = []
    statuses: dict[str, list[str]] = {op.op_id: [] for op in ops}
    op_walls: dict[str, list[float]] = {op.op_id: [] for op in ops}
    started = time.perf_counter()
    while not pass_walls or time.perf_counter() - started < seconds:
        total = peak_rss = units = 0.0
        for op in ops:
            wall, rss, rc, out, err = runner.cli(op.argv)
            runner.setup()
            exp = expected[op.op_id]
            status = oracle.judge(exp, rc, out, err)
            statuses[op.op_id].append(status)
            op_walls[op.op_id].append(wall)
            peak_rss = max(peak_rss, rss)
            total += wall
            if status == "ok":
                units += exp.units
        pass_walls.append(total)
        pass_units.append(units)
        pass_rss.append(peak_rss)

    scale = runner.speed_scale()
    scaled = [w * scale for w in pass_walls]
    for op in ops:
        print(f"op {op.op_id}: raw median {statistics.median(op_walls[op.op_id]):.4f} s, "
              f"{','.join(sorted(set(statuses[op.op_id])))}")
    high = tail(scaled)
    print(f"passes {len(scaled)}: raw wall median {statistics.median(pass_walls):.4f} s, "
          f"speed scale {scale:.4f} from {len(runner.sampler.samples)} calibration blocks; "
          f"setup_s from {len(runner.setup_walls)} calls; "
          + (f"wall_s p{high[0]} {high[1]:.4f} s" if high else
             "too few passes for a percentile with ten beyond it"))
    print("samples " + json.dumps({"wall_s": scaled, "raw_wall_s": pass_walls,
                                   "calibration_s": runner.sampler.samples}))
    every = [s for v in statuses.values() for s in v]
    return {
        "correct": not any(s in ("wrong", "error") for s in every),
        "attempted": len(every),
        "failed": sum(s != "ok" for s in every),
        "metrics": {
            "setup_s": runner.setup_s() * scale,
            "wall_s": statistics.median(scaled),
            "units_per_s": statistics.median(u / w for u, w in zip(pass_units, scaled)),
            "peak_rss_mb": max(pass_rss),
            "ok_ratio": every.count("ok") / len(every),
        },
    }


def traced_run(runner, ops, expected, seconds: float, work: str) -> dict:
    """Per-layer self times from in-process runs, beside untraced CLI calls.

    Each round runs every operation three ways: as a CLI process, in-process
    with spans and in-process with nothing wrapped.  Coverage compares the
    time layer spans cover with CLI wall time less set-up; overhead compares
    the two in-process runs.  Operations that parse, score a tree with
    stairs2 or sort by canonical code get one aux run at the end, for the
    measurements that must stay outside the timed operations.
    """
    timed = [name for name in PER_LAYER if name.endswith("_s") and name != "cli.import_s"]
    rounds: list[dict] = []
    imports: list[float] = []
    counters: dict = {}
    statuses: list[str] = []
    cli_walls: list[float] = []
    overheads: list[float] = []
    needs_aux: list = []
    in_process_ok = True
    with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as spans_out:

        def tally(report: dict, sums: dict, tag: str, count: bool) -> float:
            """Add self times into ``sums``; return the time spans cover in the command.

            Counters are per pass, so only one round adds them up.
            """
            if count:
                tracer.merge_counters(counters, report["counters"])
            own = tracer.self_times(report["spans"])
            covered = 0.0
            for s in report["spans"]:
                spans_out.write(json.dumps([tag, *s]) + "\n")
                if s[3] == tracer.COMMAND_SPAN and s[1] is None:
                    covered += s[5] - s[4]
                if s[3] == "cli.import":
                    imports.append(s[5] - s[4])
                elif s[3] + "_s" in sums:
                    sums[s[3] + "_s"] += own[s[0]]
            return covered

        def judged_ok(exp, report: dict) -> bool:
            status = oracle.judge(exp, report["rc"], report["stdout"], report["stderr"])
            return status in ("ok", "defect")

        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            sums = dict.fromkeys(timed, 0.0)
            covered = cli_wall = 0.0
            for op in ops:
                exp = expected[op.op_id]
                runner.setup()
                wall, _, rc, out, err = runner.cli(op.argv)
                statuses.append(oracle.judge(exp, rc, out, err))
                cli_wall += wall
                report = runner.in_process(op, "traced")
                in_process_ok &= judged_ok(exp, report)
                covered += tally(report, sums, f"round{len(rounds)}", not rounds)
                if not rounds and any(s[3] in tracer.AUX_SPANS for s in report["spans"]):
                    needs_aux.append(op)
                plain = runner.in_process(op, "plain")
                in_process_ok &= judged_ok(exp, plain)
                overheads.append(report["op_s"] / plain["op_s"])
            cli_walls.append(cli_wall)
            sums["trace.coverage"] = covered
            rounds.append(sums)

        # Of the aux runs' times only the fresh-parse canonical() counts: the
        # rest is slowed by tracemalloc.
        aux = {"tree.canonical_s": 0.0}
        for op in needs_aux:
            report = runner.in_process(op, "aux")
            in_process_ok &= judged_ok(expected[op.op_id], report)
            tally(report, aux, "aux", True)

    # The set-up calls ran all through the rounds; coverage needs their median.
    setup_s = runner.setup_s()
    for r, wall in zip(rounds, cli_walls):
        r["trace.coverage"] /= wall - len(ops) * setup_s
    scale = runner.speed_scale()
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.import_s":
            metrics[name] = statistics.median(imports) * scale
        elif name in timed:
            metrics[name] = (statistics.median(r[name] for r in rounds) + aux.get(name, 0.0)) * scale
        elif name == "trace.coverage":
            metrics[name] = statistics.median(r[name] for r in rounds)
        elif name == "trace.overhead_ratio":
            metrics[name] = statistics.median(overheads)
        else:
            metrics[name] = counters.get(name, 0)
    return {
        "correct": in_process_ok and all(s in ("ok", "defect") for s in statuses),
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treebalance", "cli.py")):
        print("error: run from the root of a treebalance checkout (no src/treebalance here)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    ops = WORKLOADS[args.workload](args.seed, work)
    expected = {op.op_id: oracle.expect(op.spec) for op in ops}
    runner = Runner(root, work)
    # Not recorded: the first start of the interpreter reads cold files.
    runner.setup(record=False)
    if args.trace:
        result = traced_run(runner, ops, expected, args.seconds, work)
        units = PER_LAYER
    else:
        result = timed_run(runner, ops, expected, args.seconds)
        units = END_TO_END
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
