"""exchsim benchmark: closed-loop CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/bench.py --workload mc-coherent --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 30 --trace 0

One client calls ``exchsim.cli.main(argv)`` in this process and sends the
next invocation when the previous one has returned.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs half the time
untraced, measures isolated per-call costs, then runs the other half with
spans around every layer boundary (see spans.py) and reports the per-layer
metrics.  Human-readable lines go to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Outputs, run
records and traces are written under ``.bench_out/`` in the repository root.
See README.md for the workloads and what each metric should move.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc-coherent", "sweep-dephased", "feasibility-scan")
SETUP_LAUNCHES = 7
TAIL_BEYOND = 10

# Runs in a fresh interpreter: import the CLI and build its parser (--version
# parses and exits), timed from inside so interpreter start-up is excluded.
# The machine speed is sampled right after, in the same process.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import exchsim.cli
try:
    exchsim.cli.main(["--version"])
except SystemExit:
    pass
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from speed import measure_speed
print(repr(seconds), repr(measure_speed()), exchsim.cli.__file__)
"""


def _env_with_src():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup():
    """Setup time of SETUP_LAUNCHES fresh interpreters, in reference seconds.

    Returns the median and the (wall seconds, speed) of each launch.  The
    first launch is discarded: it may compile bytecode, which users pay once.
    """
    launches = []
    for launch in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR)], cwd=ROOT,
                              env=_env_with_src(), capture_output=True, text=True, timeout=60,
                              check=True)
        seconds, speed, cli_file = done.stdout.split()[-3:]
        if Path(cli_file).resolve() != (SRC / "exchsim" / "cli.py").resolve():
            raise RuntimeError(f"the probe imported {cli_file}, not the checkout's src/")
        if launch:
            launches.append((float(seconds), float(speed)))
    return statistics.median(seconds * speed for seconds, speed in launches), launches


def source_revision():
    """Git revision if the checkout is a repository, and a digest of src/ either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "exchsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():  # never the revision of a repository enclosing the checkout
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return rev, digest.hexdigest()


class Loop:
    """Invocation intervals and outcomes of one closed loop."""

    def __init__(self):
        # Compact arrays, so that a long loop adds little to peak_rss_mb.
        self.starts = array("d")
        self.ends = array("d")
        self.work = 0
        self.failed = 0
        self.errors = []
        self.latencies = []  # seconds per invocation, set by finish()
        self.wall = []       # wall seconds per invocation, without probe pauses

    def add(self, start, end, work, error):
        self.starts.append(start)
        self.ends.append(end)
        if error is None:
            self.work += work
        else:
            self.failed += 1
            self.errors.append(error)

    def finish(self, probe=None):
        """Latencies in reference seconds with a probe, else in wall seconds."""
        intervals = zip(self.starts, self.ends)
        if probe is None:
            self.wall = self.latencies = [end - start for start, end in intervals]
        else:
            self.wall, self.latencies = map(list, zip(*probe.convert(intervals)))
        return self

    @property
    def attempted(self):
        return len(self.starts)

    def throughput(self):
        """Work units per second of invocation time."""
        return self.work / sum(self.latencies)

    def tail(self):
        """(seconds, percentile) of the highest percentile with TAIL_BEYOND invocations beyond it."""
        n = len(self.latencies)
        if n <= TAIL_BEYOND:
            return None
        rank = n - TAIL_BEYOND - 1
        return sorted(self.latencies)[rank], 100.0 * (rank + 1) / n


def invoke(argv):
    from exchsim import cli
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 1


def run_cli_captured(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = invoke(argv)
    return status, buffer.getvalue()


def closed_loop(workload, seconds, call_cli=invoke, after=None, probe=None):
    """Invoke back to back for `seconds`; returns the finished Loop and the last Call."""
    loop = Loop()
    deadline = perf_counter() + seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            probe or contextlib.nullcontext():
        while True:
            call = workload.next_call()
            start = perf_counter()
            status = call_cli(call.argv)
            end = perf_counter()
            error = f"{' '.join(call.argv)}: exit status {status}" if status else call.check()
            loop.add(start, end, call.work, error)
            if after is not None:
                after(call)
            if end >= deadline:
                break
    return loop.finish(probe), call


def determinism_error(call):
    """Rerun the call into its twin directory; the compared files must match byte for byte."""
    shutil.rmtree(call.twin_out, ignore_errors=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        status = invoke(call.twin_argv)
    if status:
        return f"{' '.join(call.twin_argv)}: exit status {status}"
    for name in call.compared:
        a, b = Path(call.out, name), Path(call.twin_out, name)
        if a.read_bytes() != b.read_bytes():
            return f"{a} and {b} differ"
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, loop, setup_s, rss):
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(loop.throughput(), "1/s"),
        "latency_p50_s": metric(statistics.median(loop.latencies), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    tail = loop.tail()
    what = "samples_per_s" if workload.unit == "samples" else "reports_per_s"
    wall_s = sum(loop.wall)
    print("end to end (tracing off; times in reference seconds, wall time in brackets):")
    print(f"  setup_s          {setup_s:.6g} s    median of {SETUP_LAUNCHES} fresh interpreters")
    print(f"  throughput_per_s {loop.throughput():.6g} 1/s  = {what}: {loop.work} "
          f"{workload.unit} in {sum(loop.latencies):.3f} s [{loop.work / wall_s:.6g} 1/s "
          f"in {wall_s:.3f} s]")
    print(f"  latency_p50_s    {metrics['latency_p50_s']['value']:.6g} s    "
          f"[{statistics.median(loop.wall):.6g} s]  n = {loop.attempted} invocations")
    if tail is None:
        print(f"  latency_tail_s   not reported: needs more than {TAIL_BEYOND} invocations, "
              f"have {loop.attempted}")
    else:
        print(f"  latency_tail_s   {tail[0]:.6g} s    p{tail[1]:.2f}, {TAIL_BEYOND} of "
              f"{loop.attempted} invocations beyond it")
    print(f"  peak_rss_mb      {rss:.1f} MB")
    print(f"  failed_frac      {loop.failed / loop.attempted:.6g}    "
          f"{loop.failed} of {loop.attempted} invocations failed")
    print(f"  machine speed    {sum(loop.latencies) / wall_s:.4f} of the reference "
          f"during the loop")
    return metrics, tail


def run_traced(workload, seconds, seed):
    """Untraced half, per-call costs, traced half; returns (per-layer metrics, loops, tracer)."""
    import spans
    from percall import per_call_costs
    from speed import SpeedProbe

    # Both halves run under the speed probe, so trace.overhead_frac compares
    # reference seconds; its pauses (about 0.5%) land in whichever span is open.
    plain, _ = closed_loop(workload, seconds / 2.0, probe=SpeedProbe())
    costs = per_call_costs(seed)

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer).install()
    traced_main = tracer.wrap("cli.main", invoke)
    written = []

    def call_cli(argv):
        tracer.request = len(written)
        return traced_main(argv)

    def after(call):
        written.append(sum(p.stat().st_size for p in Path(call.out).iterdir() if p.is_file()))

    try:
        traced, last = closed_loop(workload, seconds / 2.0, call_cli, after, SpeedProbe())
    finally:
        instrumentation.uninstall()

    metrics = {}
    for name in spans.LAYER_NAMES:
        calls, busy, self_s = tracer.layer_totals(name)
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.busy_s"] = metric(busy, "s")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    attempted = tracer.counters["noise.attempted"]
    # Nothing drawn wastes nothing: the ratio is 1 on workloads without MC.
    accept = tracer.counters["noise.accepted"] / attempted if attempted else 1.0
    metrics["noise.accept_ratio"] = metric(accept, "ratio")
    metrics["cli.bytes_written"] = metric(statistics.mean(written), "B/call")
    per_unit_traced = sum(traced.latencies) / traced.work if traced.work else float("nan")
    per_unit_plain = sum(plain.latencies) / plain.work if plain.work else float("nan")
    metrics["trace.overhead_frac"] = metric(per_unit_traced / per_unit_plain - 1.0, "ratio")
    for name, us in costs.items():
        metrics[f"{name}.us_per_call"] = metric(us, "us")
    return metrics, plain, traced, last, tracer, instrumentation.missing


def report_layers(tracer, metrics, missing):
    """Print the self-time shares; returns an error if they do not add up to cli.main."""
    from spans import LAYER_NAMES

    calls, main_busy, _ = tracer.layer_totals("cli.main")
    print(f"per layer (traced, cli.main busy {main_busy:.4f} s over {calls} invocations):")
    for name in sorted(LAYER_NAMES, key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        share = metrics[f"{name}.self_s"]["value"] / main_busy if main_busy else 0.0
        print(f"  {name:<26} self {share:7.2%}  calls {metrics[name + '.calls']['value']:>9}"
              f"  busy {metrics[name + '.busy_s']['value']:.4f} s")
    for name, entry in metrics.items():
        if not name.endswith((".self_s", ".busy_s", ".calls")):
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    if missing:
        print(f"  not wrapped (absent): {', '.join(missing)}")
    total_self = sum(tracer.self_s.values())
    if abs(total_self - main_busy) > 1e-9 * max(main_busy, 1.0):
        return f"self times add up to {total_self!r} s, cli.main busy is {main_busy!r} s"
    return None


def run_one(args):
    if not (SRC / "exchsim" / "cli.py").is_file():
        print(f"error: {SRC / 'exchsim' / 'cli.py'} not found; run from an exchsim checkout",
              file=sys.stderr)
        return 2
    # setup_s is measured before this process imports numpy or exchsim.
    setup_s, setup_samples = measure_setup()

    sys.path.insert(0, str(SRC))
    import numpy

    import exchsim
    from workloads import WORKLOADS
    if Path(exchsim.__file__).resolve().parent != (SRC / "exchsim").resolve():
        print(f"error: imported exchsim from {exchsim.__file__}", file=sys.stderr)
        return 2

    rev, src_sha = source_revision()
    nproc = len(os.sched_getaffinity(0))
    print(f"exchsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"record: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {nproc} (cpu_count {os.cpu_count()}), git rev {rev or 'none'}, "
          f"src sha256 {src_sha[:16]}")

    out_root = OUT / "out"
    workload = WORKLOADS[args.workload](args.seed, str(out_root), run_cli_captured)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        warm = invoke(workload.warmup_argv())
    errors = [] if warm == 0 else [f"warm-up exited with status {warm}"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, "cpu_count": os.cpu_count(),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "git_rev": rev, "src_sha256": src_sha, "setup_launches_wall_s_and_speed": setup_samples}
    if args.trace:
        metrics, plain, traced, last, tracer, missing = run_traced(workload, args.seconds,
                                                                    args.seed)
        loops = (plain, traced)
        sum_error = report_layers(tracer, metrics, missing)
        if sum_error:
            errors.append(sum_error)
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"layers": tracer.table(), "counters": tracer.counters,
                                          "spans": tracer.spans}) + "\n")
        record["latencies_s"] = {"untraced": plain.latencies, "traced": traced.latencies}
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        from speed import SpeedProbe
        loop, last = closed_loop(workload, args.seconds, probe=SpeedProbe())
        rss = peak_rss_mb()  # before the determinism rerun
        loops = (loop,)
        metrics, tail = end_to_end(workload, loop, setup_s, rss)
        record["latencies_s"] = loop.latencies
        record["wall_latencies_s"] = loop.wall
        record["latency_tail_s"] = tail and {"value": tail[0], "percentile": tail[1],
                                             "beyond": TAIL_BEYOND}

    twin_error = determinism_error(last)
    print(f"determinism: {', '.join(last.compared)} "
          f"{'byte-identical' if twin_error is None else 'DIFFER'} after rerun as: "
          f"{' '.join(last.twin_argv)}")
    attempted = sum(loop.attempted for loop in loops) + 1
    failed = sum(loop.failed for loop in loops) + (twin_error is not None)
    errors += [e for loop in loops for e in loop.errors]
    if twin_error:
        errors.append(twin_error)
    for error in errors[:5]:
        print(f"failure: {error}")

    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result, errors=errors)
    record_path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record written to {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, so setup and peak RSS stay per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
