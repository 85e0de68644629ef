"""Benchmark of the `a2l2` command line.

    python3 bench/run.py --workload algebra-l6 --seed 1 --seconds 60 --trace 0

Each workload is one `a2l2` command at a fixed rank, run closed loop: one
client, one fresh child process at a time.  Every invocation is cold,
because a user pays the import and the lazily built tables on every call.
The package is run from `src/` of the checkout the script sits in; nothing
is installed.

`--trace 0` times untraced invocations and reports the end-to-end metrics:
`wall_norm` (wall time of the fastest invocation over that of the fastest
run of a fixed reference computation timed between invocations),
`peak_rss_mb` (mean of the child's peak resident set) and `setup_s` (median
time of a fresh interpreter running `import a2l2.cli`).  The program does
the same work on every invocation, and other tenants of the shared host can
only slow it down, so the fastest invocation is the steadiest estimate of
its cost; the host's speed also drifts by tens of percent over minutes,
and the reference drifts with it.  The wall times themselves are printed
too.  `--trace 1` alternates untraced invocations with traced ones (see
traced_cli.py) and reports the per-layer metrics.  Every invocation's exit code and output are checked against the
outputs stored in bench/expected/; a mismatch, a crash or a timeout counts
as a failed invocation.

The inputs are fixed by the rank, so `--seed` sets the interleaving order:
of set-up and reference samples among invocations, of traced and untraced
invocations, and, with `--workload all`, of the workloads.  A run stops
starting invocations when the next round would end after `--seconds`.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  Spans of the
first traced invocations are written to .bench_out/spans-<workload>.jsonl.
Without `src/a2l2` in the checkout the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import marshal
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from traced_cli import LAYERS, TIMED

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = BENCH / "expected"
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

# The `a2l2` console script, run without installing the package.
CLI_PROGRAM = "import sys; from a2l2.cli import main; sys.exit(main())"
SETUP_PROGRAM = "import a2l2.cli"
# The reference computation: stdlib only, with the program's mix of work
# (exact fractions in dicts keyed by tuples).  It never changes, so its
# wall time tracks how fast the host runs.
REFERENCE_PROGRAM = """
from fractions import Fraction
acc = {}
for i in range(1, 100000):
    key = (i % 97, i % 13)
    acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 - 3, i % 5 + 1)
"""
SETUP_SAMPLES = 5  # at least this many set-up samples per run
GRACE_S = 100  # a run ends at most this long after --seconds
SPAN_RUNS_KEPT = 2  # traced invocations per workload whose spans are written


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    max_l: int
    expected: Path


def make_workload(name: str, max_l: int, *args: str, expected_dir: Path = EXPECTED) -> Workload:
    return Workload(name, args, max_l, expected_dir / f"{name}.out")


WORKLOADS = {
    w.name: w
    for w in (
        make_workload("verify-l5", 5, "verify", "--l", "5", "--format", "json"),
        make_workload(
            "algebra-l6", 6, "verify", "--l", "6", "--checks",
            "singular,nu-fixed,zhu-image,v1-closed-form,polynomials,r0-dim",
            "--format", "json",
        ),
        make_workload("classify-l6", 6, "classify", "--l", "6", "--format", "json"),
    )
}

END_TO_END_UNITS = {"wall_norm": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """The package cannot be run from this checkout."""


# ------------------------------------------------------------ children


@dataclasses.dataclass
class Child:
    code: int | None  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(max_l: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("A2L2_MAX_L", None)
    if max_l is not None:
        env["A2L2_MAX_L"] = str(max_l)
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run one child to its end; time it and read its resource usage."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.1))
        finally:
            # Also on an interrupt: no child outlives the benchmark.
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode if ready else None,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            stdout=out.read(),
            stderr=err.read(),
        )


def normalise(stdout: bytes) -> bytes:
    """Drop the only run-dependent field, the per-check `elapsed_ms`."""
    return re.sub(rb'\n *"elapsed_ms": -?\d+,', b"", stdout)


def failure(workload: Workload, child: Child) -> str | None:
    """Why an invocation failed, or None when its output is as stored."""
    if child.code is None:
        return "timed out"
    if child.code != 0:
        last = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {child.code}" + (f": {last[0]}" if last else "")
    if normalise(child.stdout) != workload.expected.read_bytes():
        return "output differs from " + workload.expected.relative_to(ROOT).as_posix()
    return None


def check_setup() -> None:
    """Make sure `a2l2` imports from this checkout's src/ and compile it."""
    if not (SRC / "a2l2" / "cli.py").is_file():
        raise SetupError(f"no a2l2 package under {SRC}")
    probe = "import a2l2.cli, sys; sys.stdout.write(a2l2.cli.__file__)"
    child = run_child([sys.executable, "-c", probe], child_env(), 60)
    if child.code != 0:
        raise SetupError("cannot import a2l2.cli: " + child.stderr.decode(errors="replace"))
    found = Path(child.stdout.decode()).resolve()
    if found != (SRC / "a2l2" / "cli.py").resolve():
        raise SetupError(f"a2l2.cli imports from {found}, not from {SRC}")


# --------------------------------------------------------------- traces


def layer_profile(trace: dict) -> dict:
    """Self time and entering calls per layer, from one traced invocation."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    timed = dict.fromkeys(TIMED, 0.0)
    for (name, start, end, parent), cover in zip(spans, covered):
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - cover
        if not name.endswith(".<import>"):
            calls[layer] += 1
        if name in timed and (parent is None or spans[parent][0] != name):
            timed[name] += end - start
    wall = trace["wall"]
    return {
        "self_s": self_s,
        "calls": calls,
        "timed": timed,
        "wall": wall,
        "coverage": sum(self_s.values()) / wall,
    }


def trace_counts(trace: dict, profile: dict) -> dict[str, int]:
    """Counts that must repeat exactly from one traced invocation to the next."""
    counts = {f"{layer}.calls": n for layer, n in profile["calls"].items()}
    counts.update(trace["counts"])
    counts["cache.hits"] = sum(hits for hits, _ in trace["cache"].values())
    counts["trace.spans"] = len(trace["spans"])
    return counts


# ----------------------------------------------------------------- runs


@dataclasses.dataclass
class Samples:
    wall: list[float] = dataclasses.field(default_factory=list)
    cpu: list[float] = dataclasses.field(default_factory=list)
    rss: list[float] = dataclasses.field(default_factory=list)
    overhead: list[float] = dataclasses.field(default_factory=list)
    profiles: list[dict] = dataclasses.field(default_factory=list)
    counts: list[dict] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)


class Run:
    """One benchmark run over one or more workloads."""

    def __init__(self, workloads: list[Workload], seed: int, seconds: float, trace: bool):
        self.workloads = workloads
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.samples = {w.name: Samples() for w in workloads}
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.spans: list[tuple] = []
        self.start = time.perf_counter()
        self.deadline = self.start + seconds + GRACE_S

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def sample(self, program: str, into: list[float]) -> None:
        """Time a set-up or reference child."""
        child = run_child([sys.executable, "-c", program], child_env(), self.timeout())
        if child.code != 0:
            raise SetupError(f"{program.strip()!r} failed: " + child.stderr.decode(errors="replace"))
        into.append(child.wall_s)

    def invoke(self, w: Workload) -> Child:
        s = self.samples[w.name]
        argv = [sys.executable, "-c", CLI_PROGRAM, *w.args]
        child = run_child(argv, child_env(w.max_l), self.timeout())
        self.record(w, child)
        if child.code == 0:
            s.wall.append(child.wall_s)
            s.cpu.append(child.cpu_s)
            s.rss.append(child.peak_rss_mb)
        return child

    def invoke_traced(self, w: Workload) -> Child:
        s = self.samples[w.name]
        dump = OUT / "trace.marshal"
        dump.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(dump), "--", *w.args]
        child = run_child(argv, child_env(w.max_l), self.timeout())
        if self.record(w, child) is None:
            with open(dump, "rb") as handle:
                trace = marshal.load(handle)  # written by our own child
            run_id = len(s.profiles)
            if run_id < SPAN_RUNS_KEPT:
                self.spans.extend((w.name, run_id, *span) for span in trace["spans"])
            profile = layer_profile(trace)
            s.profiles.append(profile)
            s.counts.append(trace_counts(trace, profile))
            if s.counts[0] != s.counts[-1]:
                s.failures.append("traced call counts differ between invocations")
        return child

    def record(self, w: Workload, child: Child) -> str | None:
        s = self.samples[w.name]
        s.attempted += 1
        why = failure(w, child)
        if why is not None:
            s.failures.append(why)
        return why

    def round(self) -> None:
        """Each workload once, plus one set-up and one reference sample when
        untraced, in the seed's order."""
        steps = [] if self.trace else [("setup", None), ("reference", None)]
        for w in self.workloads:
            steps.append(("pair" if self.trace else "plain", w))
        self.rng.shuffle(steps)
        for kind, w in steps:
            if kind == "setup":
                self.sample(SETUP_PROGRAM, self.setup)
            elif kind == "reference":
                self.sample(REFERENCE_PROGRAM, self.reference)
            elif kind == "plain":
                self.invoke(w)
            else:
                if self.rng.random() < 0.5:
                    plain, traced = self.invoke(w), self.invoke_traced(w)
                else:
                    traced, plain = self.invoke_traced(w), self.invoke(w)
                if plain.code == 0 and traced.code == 0:
                    self.samples[w.name].overhead.append(traced.wall_s - plain.wall_s)

    def execute(self) -> None:
        check_setup()
        round_times: list[float] = []
        while True:
            began = time.perf_counter()
            self.round()
            round_times.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - self.start
            if elapsed + statistics.median(round_times) > self.seconds:
                break
            if self.timeout() <= 0:
                break
        while not self.trace and len(self.setup) < SETUP_SAMPLES:
            self.sample(SETUP_PROGRAM, self.setup)

    def write_spans(self) -> None:
        """Write the kept spans, one JSON array a line."""
        for w in self.workloads:
            path = OUT / f"spans-{w.name}.jsonl"
            with open(path, "w", encoding="utf-8") as handle:
                head = {"workload": w.name, "fields": ["workload", "run", "name", "start", "end", "parent"]}
                handle.write(json.dumps(head) + "\n")
                for span in self.spans:
                    if span[0] == w.name:
                        handle.write(json.dumps(span) + "\n")


# -------------------------------------------------------------- metrics


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g} {q[round(p * 10) - 1]:.4f} s"
    return "no percentile has ten samples beyond it"


def end_to_end(s: Samples, run: Run) -> dict[str, float]:
    out = {}
    if s.wall:
        out["wall_norm"] = min(s.wall) / min(run.reference)
        out["peak_rss_mb"] = statistics.fmean(s.rss)
    if run.setup:
        out["setup_s"] = statistics.median(run.setup)
    return out


def per_layer(s: Samples) -> dict[str, tuple[float, str]]:
    if not s.overhead:  # no pair in which both invocations passed
        return {}
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (statistics.median(p["self_s"][layer] for p in s.profiles), "s")
    counts = s.counts[0]
    for key, value in counts.items():
        if key not in ("linalg.span_add.new",):
            out[key] = (value, "count")
    added = counts["linalg.span_add.calls"]
    out["linalg.span_add.new_ratio"] = (counts["linalg.span_add.new"] / added if added else 0.0, "ratio")
    out["cli.wall_s"] = (min(s.wall), "s")
    out["cli.cpu_s"] = (statistics.median(s.cpu), "s")
    out["trace.wall_s"] = (statistics.median(p["wall"] for p in s.profiles), "s")
    out["trace.coverage"] = (statistics.median(p["coverage"] for p in s.profiles), "ratio")
    out["trace.overhead_s"] = (statistics.median(s.overhead), "s")
    return out


def summarise(run: Run) -> tuple[list[str], dict]:
    """The human-readable report lines and the result object of a run."""
    lines = []
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    prefix = len(run.workloads) > 1
    for w in run.workloads:
        s = run.samples[w.name]
        attempted += s.attempted
        failed += len(s.failures)
        mode = "traced, alternating with untraced" if run.trace else "untraced"
        lines.append(f"workload {w.name}: a2l2 {' '.join(w.args)}  (A2L2_MAX_L={w.max_l})")
        lines.append(f"  closed loop, 1 client, {mode}; {s.attempted} invocations")
        ratio = len(s.failures) / s.attempted if s.attempted else 1.0
        lines.append(f"  fail_ratio          {ratio:.4f}  ({len(s.failures)}/{s.attempted})")
        for why in sorted(set(s.failures)):
            lines.append(f"    failed: {why}")
        if run.trace:
            values = per_layer(s)
            for name in TIMED if s.profiles else ():
                t = statistics.median(p["timed"][name] for p in s.profiles)
                lines.append(f"  {name + '.s':<34} {t:.6g} s  (inclusive; no metric)")
        else:
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(s, run).items()}
            if s.wall:
                lines.append(f"  wall_s              min {min(s.wall):.4f} s, median "
                             f"{statistics.median(s.wall):.4f} s, {tail(s.wall)}  (n={len(s.wall)})")
                lines.append(f"  reference wall_s    min {min(run.reference):.4f} s, median "
                             f"{statistics.median(run.reference):.4f} s  (n={len(run.reference)})")
        for name, (value, unit) in values.items():
            lines.append(f"  {name:<34} {value:.6g} {unit}")
            metrics[f"{w.name}.{name}" if prefix else name] = {"value": value, "unit": unit}
    return lines, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def exit_on_signal(signum, frame) -> None:
    """SIGTERM handler: exit through the `finally` that stops the child."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_signal)
    if args.workload == "all":
        workloads = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        workloads = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    run = Run(workloads, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if run.trace:
        run.write_spans()
    lines, result = summarise(run)
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
