"""Workcell benchmark: seeded closed-loop workloads over the checked-out sources.

Run from the repository root:

    python3 benchmarks/run.py --workload tabletop --seed 1 --seconds 30 --trace 0

Workloads are ``tabletop``, ``control_loops`` and ``mission`` (see
``workcell/inputs.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
pass with ``--trace 1``.  The line before it is a report with each metric's
sample count, the input properties, the outcomes and the machine.
``workbot`` is imported from ``src/`` next to this directory, never from an
installed copy, so two checkouts measure two trees.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CLI_SAMPLES = 4
SUBPROCESS_TIMEOUT = 120


def use_checkout() -> None:
    """Put the checkout's ``src/`` first on the import path, or stop."""
    if not (SRC / "workbot" / "__init__.py").is_file():
        sys.exit(f"benchmark: no workbot sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child(argv) -> tuple[float, str]:
    """Wall time in ms and standard output of one child process."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    ms = (perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return ms, proc.stdout


def _subprocess_ms(argv, rec, kind: str, reference: bool = True):
    """Wall time of one child process, counted as one operation, with the
    factor that scales it to the reference host (see workcell/host.py);
    returns (ms, scale, stdout) or None when the child fails."""
    from workcell import host

    def once():
        scale = 1.0
        if reference:
            ref_ms, _ = _child([sys.executable, *host.REFERENCE_CHILD])
            scale = host.REF_CHILD_MS / ref_ms
        ms, stdout = _child(argv)
        return ms, scale, stdout
    ok, out = rec.call(kind, once)
    return out if ok else None


def setup_probe(workload: str, seed: int):
    """Process start to inputs generated and workbot imported, in a fresh
    child process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]

    def probe(rec):
        run = _subprocess_ms(argv, rec, "setup")
        if run:
            rec.sample("setup_ms", run[0], scale=run[1])
    return probe


def _check_cli(command: str, summary: dict) -> None:
    from workcell.oracles import CheckFailed
    if command == "perceive" and summary["cluster_count"] != summary["object_count"]:
        raise CheckFailed(f"perceive found {summary['cluster_count']} clusters")
    if command == "rtt" and not summary["assoc_accuracy"] >= 0.9:
        raise CheckFailed(f"rtt accuracy {summary['assoc_accuracy']}")
    # transport_1: drive to the shelf, perceive, grasp, drive back, place
    if command == "plan" and summary["cost"] != 5.0:
        raise CheckFailed(f"plan cost {summary['cost']}, expected 5")


def cli_probe(cli: list[str], scratch: Path):
    """One cold ``python -m workbot.cli`` run on bundled data."""
    argv = [sys.executable, "-m", "workbot.cli", *cli, "--out",
            str(scratch / "cli.out")]

    def probe(rec):
        run = _subprocess_ms(argv, rec, "cli")
        if run is None:
            return
        ms, scale, stdout = run
        ok, _ = rec.call("cli", _check_cli, cli[0],
                         json.loads(stdout.splitlines()[-1]))
        if ok:
            rec.sample("cli_cold_ms", ms, scale=scale)
    return probe


def import_probe(rec) -> None:
    """Cold ``import workbot.cli`` in a fresh child process."""
    code = ("import time; t = time.perf_counter(); import workbot.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    run = _subprocess_ms([sys.executable, "-c", code], rec, "cli",
                         reference=False)
    if run:
        rec.sample("cli_import_ms", float(run[2]))


def pin_to_one_cpu() -> None:
    """Run on one CPU, and let the child processes inherit it.  The host's
    CPUs are not equally busy, so a process that moves between them runs its
    timed calls at one speed and the host kernel (workcell/host.py) at
    another."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def host_summary(clock) -> dict:
    """How fast the host ran: the reference kernel's readings."""
    from workcell import host, metrics
    return {"kernel_readings": len(clock.ms),
            "kernel_ms.p10": metrics.percentile(clock.ms, 10),
            "kernel_ms.p50": metrics.percentile(clock.ms, 50),
            "reference_kernel_ms": host.REF_KERNEL_MS}


def settle() -> None:
    """Keep the inputs, which live for the whole run, out of the garbage
    collector's scans: a full scan over them lands in whichever timed call
    happens to trigger it."""
    gc.collect()
    gc.freeze()


def untraced(args, scratch: Path):
    from workcell import inputs, metrics, tasks
    rec = tasks.Recorder()
    wl = inputs.build(args.workload, args.seed, ROOT)
    settle()
    probes = ([setup_probe(args.workload, args.seed)] * SETUP_SAMPLES
              + [cli_probe(wl.cli, scratch)] * CLI_SAMPLES)
    tasks.run_for(rec, wl, args.seconds, probes)
    e2e = metrics.end_to_end(rec)
    values = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    samples = {name: n for name, (_, _, n) in e2e.items()}
    info = {"samples": samples,
            "unscaled": {name: value for name, (value, unit, _)
                         in metrics.end_to_end(rec, scaled=False).items()
                         if unit in ("ms", "s")},
            "host": host_summary(rec.host)}
    return rec, values, info, [name for name, n in samples.items() if n == 0]


def traced(args, scratch: Path):
    """Half the time untraced, then the same tasks again under the tracer;
    per-layer metrics come from the traced pass, and the difference between
    the two passes is the tracing overhead."""
    from workcell import inputs, metrics, tasks, tracing
    rec = tasks.Recorder()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        wl = inputs.build(args.workload, args.seed, ROOT)
    # one round of the reference tasks is enough to attribute their time
    wl.refs = list(dict.fromkeys(wl.refs))
    settle()
    t0 = perf_counter()
    plain = tasks.run_for(rec, wl, args.seconds / 2.0,
                          [import_probe] * SETUP_SAMPLES)
    t1 = perf_counter()
    # the traced pass keeps only its own intervals, to match its spans
    rec.intervals = []
    with tracing.traced(tracer):
        timed = [tasks.run_timed(rec, wl, task, traced=True) for task, _ in plain]
    t2 = perf_counter()
    # both passes scaled to the reference host, so that a slow spell during
    # one of them does not read as tracing overhead
    base = sum(t for _, t in plain) * rec.host.scale(t0, t1)
    with_spans = sum(timed) * rec.host.scale(t1, t2)
    imports = rec.samples["cli_import_ms"]
    extra = {"cli.import_ms": metrics.percentile(imports, 50),
             "trace.overhead_pct": 100.0 * (with_spans - base) / base}
    layer = metrics.per_layer(tracer.spans, rec.intervals, extra)
    info = {"samples": {"tasks": len(plain), "cli.import_ms": len(imports)},
            "spans": metrics.span_summary(tracer.spans),
            "host": host_summary(rec.host)}
    return rec, layer, info, [] if imports else ["cli.import_ms"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tabletop", "control_loops", "mission"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout()
    pin_to_one_cpu()
    from workcell import inputs

    if args.setup_only:
        inputs.build(args.workload, args.seed, ROOT)
        return 0
    scratch = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        run = traced if args.trace else untraced
        rec, values, info, missing = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in rec.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for name in missing:
        print(f"no samples for {name}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **info,
              "properties": {key: {b: n / sum(c.values()) for b, n in sorted(c.items())}
                             for key, c in sorted(rec.properties.items())},
              "outcomes": dict(sorted(rec.outcomes.items())),
              "machine": machine()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0 and not missing,
        "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
