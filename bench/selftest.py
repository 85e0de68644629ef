"""Self-test of the benchmark harness at tiny ranks (l = 1, 2).

    python3 bench/selftest.py

Checks, in a few seconds:

* an untraced run emits every end-to-end metric of BENCHMARK.json with its
  unit, and no invocation fails;
* a traced run emits every per-layer metric of BENCHMARK.json with its
  unit, and two traced runs give exactly the same call counts;
* the counts hold the predictions the benchmark rests on: the lowered
  polynomials are built 2^l + 3 times in a full `verify`, and `classify`
  makes no enveloping-algebra calls;
* with a deliberately corrupted stored output, every invocation fails.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

TINY = (
    run.make_workload("verify-l1", 1, "verify", "--l", "1", "--format", "json"),
    run.make_workload("verify-l2", 2, "verify", "--l", "2", "--format", "json"),
    run.make_workload("classify-l2", 2, "classify", "--l", "2", "--format", "json"),
)
SECONDS = 1.0


def spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def execute(workloads, seed: int, trace: bool) -> tuple[run.Run, dict]:
    r = run.Run(list(workloads), seed, SECONDS, trace)
    r.execute()
    return r, run.summarise(r)[1]


def units(result: dict, workload: str) -> dict[str, str]:
    prefix = workload + "."
    return {
        k[len(prefix):]: v["unit"]
        for k, v in result["metrics"].items()
        if k.startswith(prefix)
    }


def main() -> int:
    bench = spec()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    _, plain = execute(TINY, seed=1, trace=False)
    check(plain["correct"] and plain["failed"] == 0, "untraced run: no invocation fails")
    for w in TINY:
        check(units(plain, w.name) == wanted, f"{w.name}: every end-to-end metric, with its unit")

    wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
    first, traced = execute(TINY, seed=2, trace=True)
    second, _ = execute(TINY, seed=3, trace=True)
    check(traced["correct"], "traced run: no invocation fails")
    for w in TINY:
        check(units(traced, w.name) == wanted, f"{w.name}: every per-layer metric, with its unit")
        a, b = first.samples[w.name].counts, second.samples[w.name].counts
        check(bool(a) and all(c == a[0] for c in a + b), f"{w.name}: call counts repeat exactly")
    counts = {w.name: first.samples[w.name].counts[0] for w in TINY}
    for name, l in (("verify-l1", 1), ("verify-l2", 2)):
        got = counts[name]["twzhu.lowered_polynomials.calls"]
        check(got == 2**l + 3, f"{name}: lowered_polynomials called 2^l + 3 = {2**l + 3} times (got {got})")
    check(counts["classify-l2"]["envelope.ad.calls"] == 0, "classify-l2: no envelope.ad calls")
    check(counts["classify-l2"]["envelope.calls"] == 0, "classify-l2: no calls into envelope")

    corrupt_dir = run.OUT / "selftest-expected"
    shutil.rmtree(corrupt_dir, ignore_errors=True)
    corrupt_dir.mkdir(parents=True)
    corrupted = []
    for w in TINY:
        data = bytearray(w.expected.read_bytes())
        data[len(data) // 2] ^= 1
        (corrupt_dir / w.expected.name).write_bytes(bytes(data))
        corrupted.append(run.make_workload(w.name, w.max_l, *w.args, expected_dir=corrupt_dir))
    broken, result = execute(corrupted, seed=4, trace=False)
    for w in corrupted:
        s = broken.samples[w.name]
        ratio = len(s.failures) / s.attempted
        check(ratio == 1, f"{w.name}: corrupted stored output gives fail_ratio 1 (got {ratio})")
    check(not result["correct"], "corrupted stored output: result is not correct")
    shutil.rmtree(corrupt_dir)

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
