"""Tests for the check registry, report rendering, dumps, and the CLI."""

from __future__ import annotations

import ast
import copy
import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import a2l2.checks as checks
import a2l2.classify as classify
import a2l2.twzhu as twzhu
import a2l2.vacuum as vacuum
from a2l2 import max_rank
from a2l2.checks import (
    CHECK_IDS,
    CheckResult,
    Report,
    dump_object,
    level_string,
    render_report,
    run_checks,
)
from a2l2.cli import main
from a2l2.envelope import PBWAlgebra
from a2l2.liealg import split_basis

from test_mutants import PER_RANK_CACHES


ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected"
GOLDEN = Path(__file__).resolve().parent / "golden"

RANK1_SINGULAR_LINE = (
    "1/3*H[1](-1)E[1,3](-1)|0> - 1/3*H[2](-1)E[1,3](-1)|0>"
    " + E[1,2](-1)E[2,3](-1)|0> - 1/2*E[1,3](-2)|0>"
)
RANK2_SINGULAR_LINE = (
    "3/5*H[1](-1)E[1,5](-1)|0> + 1/5*H[2](-1)E[1,5](-1)|0>"
    " - 1/5*H[3](-1)E[1,5](-1)|0> - 3/5*H[4](-1)E[1,5](-1)|0>"
    " + E[1,2](-1)E[2,5](-1)|0> + E[1,3](-1)E[3,5](-1)|0>"
    " + E[1,4](-1)E[4,5](-1)|0> - 3/2*E[1,5](-2)|0>"
)


def run_cli(args, env=None) -> tuple[int, bytes, str]:
    """Run `a2l2 <args>` in this process with `env` added to the
    environment: (exit code, stdout bytes, stderr text)."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(stdout), redirect_stderr(err):
        with pytest.raises(SystemExit) as exited:
            main(args=list(args))
    return exited.value.code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------ run_checks

def test_run_all_checks_rank1_passes():
    report = run_checks(1, "all")
    assert report.overall == "pass"
    assert tuple(r.id for r in report.checks) == CHECK_IDS
    assert all(r.status == "pass" for r in report.checks)
    assert all(r.elapsed_ms >= 0 for r in report.checks)


def test_run_all_checks_rank2_passes():
    report = run_checks(2, "all")
    assert report.overall == "pass"
    assert all(r.status == "pass" for r in report.checks)


def test_run_single_check_with_unmet_dependency_still_runs():
    for ids in (["classification"], "classification"):
        report = run_checks(2, ids)
        assert report.overall == "pass"
        assert len(report.checks) == 1
        only = report.checks[0]
        assert only.id == "classification" and only.status == "pass"
        assert only.details["count"] == 4


def test_run_checks_validation():
    with pytest.raises(ValueError):
        run_checks(0, "all")
    with pytest.raises(ValueError):
        run_checks(max_rank() + 1, "all")
    with pytest.raises(ValueError):
        run_checks(1, ["no-such-check"])
    with pytest.raises(ValueError):
        run_checks(1, [])
    with pytest.raises(ValueError):
        run_checks(True, "cartan-matrix")
    with pytest.raises(ValueError):
        dump_object(True, "weights")


def test_rank_cap_env_override(monkeypatch):
    monkeypatch.setenv("A2L2_MAX_L", "2")
    assert max_rank() == 2
    with pytest.raises(ValueError):
        run_checks(3, ["g1-dim"])
    monkeypatch.setenv("A2L2_MAX_L", "6")
    report = run_checks(5, ["g1-dim"])
    assert report.overall == "pass"
    for raw in ("banana", "0", "-3"):
        monkeypatch.setenv("A2L2_MAX_L", raw)
        with pytest.raises(ValueError):
            max_rank()
        with pytest.raises(ValueError):
            run_checks(1, ["g1-dim"])


def clear_per_rank_caches():
    for cached in PER_RANK_CACHES:
        cached.cache_clear()


def test_full_verify_builds_each_stage_once():
    clear_per_rank_caches()
    code, _, _ = run_cli(["verify", "--l", "2"])
    assert code == 0
    for stage in (
        vacuum.singular_vector,
        twzhu.projection_context,
        twzhu.split_singular_vector,
        twzhu.zhu_singular_image,
        twzhu.compute_v1,
        twzhu.lowered_polynomials,
        twzhu.r0_basis,  # the orbit with its weight-zero members
        classify.all_highest_weights,
    ):
        assert stage.cache_info().misses == 1, stage.__name__


def test_checks_and_dumps_leave_the_shared_stages_unchanged():
    # a cached stage is shared, not copied, so a caller that modified it
    # would change what every later caller reads.  The mode bases are left
    # out: a basis compares by identity, not by value, and the split one, the
    # PBW algebra, fills its table of adjoint images as `ad` reads it.
    clear_per_rank_caches()
    l = 3
    stages = [
        stage for stage in PER_RANK_CACHES
        if stage not in (vacuum.standard_mode_basis, twzhu.projection_context)
    ]
    before = [copy.deepcopy(stage(l)) for stage in stages]
    assert run_checks(l).overall == "pass"
    for which in checks.DUMP_OBJECTS:
        dump_object(l, which)
    for stage, copied in zip(stages, before):
        assert stage(l) == copied, stage.__name__


def test_dependency_failure_skips_downstream(monkeypatch):
    def forced_failure(l):
        return False, {"forced": True}

    patched = tuple(
        (cid, deps, forced_failure if cid == "singular" else fn)
        for cid, deps, fn in checks.REGISTRY
    )
    monkeypatch.setattr(checks, "REGISTRY", patched)
    report = checks.run_checks(1, "all")
    by_id = {r.id: r for r in report.checks}
    assert report.overall == "fail"
    assert by_id["cartan-matrix"].status == "pass"
    assert by_id["g1-dim"].status == "pass"
    assert by_id["singular"].status == "fail"
    for downstream in (
        "nu-fixed",
        "zhu-image",
        "v1-closed-form",
        "polynomials",
        "r0-dim",
        "classification",
        "dominant",
        "admissible",
        "kw-positivity",
    ):
        assert by_id[downstream].status == "skip"
        assert by_id[downstream].details["blocked_by"]


def swapped_split_table(l: int) -> PBWAlgebra:
    """The rank's split table with its first even and first odd element
    swapped: the same elements and Cartan block, graded wrongly by index."""
    elems, labels, scales = split_basis(l)
    g0 = l * (2 * l + 1)
    order = (g0, *range(1, g0), 0, *range(g0 + 1, len(elems)))
    elems, labels, scales = ([seq[i] for i in order] for seq in (elems, labels, scales))
    return PBWAlgebra(l, elems, labels, g0_count=g0, scales=scales)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_g1_dim_certifies_the_grading_by_index(monkeypatch, l):
    # `nu-fixed` and the projection read an element's parity off its index,
    # so a table that holds the right elements in the wrong parts is red
    monkeypatch.setattr(checks, "projection_context", lambda _: swapped_split_table(l))
    report = run_checks(l, "g1-dim")
    assert report.checks[0].status == "fail"


def test_nu_fixed_waits_for_the_grading_it_reads(monkeypatch):
    monkeypatch.setattr(checks, "projection_context", lambda _: swapped_split_table(2))
    by_id = {r.id: r for r in run_checks(2, ["g1-dim", "singular", "nu-fixed"]).checks}
    assert by_id["g1-dim"].status == "fail"
    assert by_id["singular"].status == "pass"
    assert by_id["nu-fixed"].status == "skip"
    assert by_id["nu-fixed"].details == {"blocked_by": ["g1-dim"]}
    # a prerequisite that is not selected is not required
    monkeypatch.undo()
    assert [r.status for r in run_checks(2, "nu-fixed").checks] == ["pass"]


def test_crashing_check_reports_fail(monkeypatch):
    def boom(l):
        raise RuntimeError("deliberate")

    patched = tuple(
        (cid, deps, boom if cid == "g1-dim" else fn)
        for cid, deps, fn in checks.REGISTRY
    )
    monkeypatch.setattr(checks, "REGISTRY", patched)
    report = checks.run_checks(1, ["g1-dim"])
    assert report.overall == "fail"
    assert report.checks[0].status == "fail"
    assert "deliberate" in report.checks[0].details["error"]


# ------------------------------------------------------------- rendering

def _normalized_json(report: Report) -> str:
    stripped = Report(
        report.l,
        tuple(
            CheckResult(r.id, r.status, 0, r.details) for r in report.checks
        ),
        report.overall,
    )
    return render_report(stripped, "json")


def test_json_report_schema_and_idempotence():
    report = run_checks(1, "all")
    text = render_report(report, "json")
    assert text == render_report(report, "json")  # byte-stable rendering
    payload = json.loads(text)
    assert set(payload) == {"l", "level", "overall", "checks"}
    assert payload["l"] == 1
    assert payload["level"] == "-3/2"
    assert payload["overall"] == "pass"
    for entry in payload["checks"]:
        assert set(entry) == {"id", "status", "elapsed_ms", "details"}
        assert isinstance(entry["elapsed_ms"], int)
    # two independent runs agree after normalizing the timing field
    again = run_checks(1, "all")
    assert _normalized_json(report) == _normalized_json(again)


def test_level_strings():
    assert level_string(1) == "-3/2"
    assert level_string(2) == "-5/2"
    assert level_string(3) == "-7/2"


def test_text_report_contents():
    report = run_checks(1, ["cartan-matrix", "g1-dim"])
    text = render_report(report, "text")
    assert "rank l = 1, level -3/2" in text
    assert "[PASS] cartan-matrix" in text
    assert "[PASS] g1-dim" in text
    assert text.rstrip().endswith("overall: PASS")
    with pytest.raises(ValueError):
        render_report(report, "yaml")


# ----------------------------------------------------------------- dumps

def test_dump_pinned_rank1_objects():
    assert dump_object(1, "polys") == "h1*(h1 - 1/2)\n"
    assert dump_object(1, "weights") == "0\nw1\n"
    assert dump_object(1, "zhu-image") == "Ep[1,2]*Ep[1,2]\n"
    assert dump_object(1, "v1") == "-hb[1]*Ep[1,2] + Ep[1,2]\n"
    assert dump_object(1, "singular") == RANK1_SINGULAR_LINE + "\n"


def test_dump_rank2_shapes():
    # the three quadratic summands merge pairwise in the canonical basis:
    # the outer factors coincide and the middle one picks up a sign
    assert dump_object(2, "zhu-image") == "2*Ep[1,2]*Ep[1,4] - Ep[1,3]*Ep[1,3]\n"
    assert dump_object(2, "v1") == (
        "4*Ep[3,2]*Ep[1,4] + 2*h[1]*Ep[1,3] + hb[2]*Ep[1,3]"
        " + 4*Ep[1,2]*Ep[2,3] - Ep[1,3]\n"
    )
    assert dump_object(2, "polys") == "h1*(h1 + 2*h2 + 1/2)\nh2*(h2 - 1/2)\n"
    assert dump_object(2, "weights") == "0\nw2\n-1/2*w1\n-3/2*w1 + w2\n"
    assert dump_object(2, "singular") == RANK2_SINGULAR_LINE + "\n"


def test_dump_validation():
    with pytest.raises(ValueError):
        dump_object(1, "no-such-object")
    with pytest.raises(ValueError):
        dump_object(0, "polys")


# ------------------------------------------------------------------- CLI

def test_cli_verify_text_pass():
    code, out, _ = run_cli(["verify", "--l", "1"])
    assert code == 0
    assert b"overall: PASS" in out


def test_cli_verify_json_subset():
    code, out, _ = run_cli(
        ["verify", "--l", "2", "--checks", "cartan-matrix,g1-dim", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == "-5/2"
    assert [c["id"] for c in payload["checks"]] == ["cartan-matrix", "g1-dim"]


def test_cli_verify_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--l", "1", "--checks", "g1-dim", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["overall"] == "pass"


def test_cli_usage_errors_exit_2(tmp_path):
    assert run_cli(["verify", "--l", "0"])[0] == 2
    assert run_cli(["verify", "--l", "99"])[0] == 2
    assert run_cli(["verify"])[0] == 2
    assert run_cli(["verify", "--l", "1", "--checks", "bogus"])[0] == 2
    assert run_cli(["verify", "--l", "1", "--format", "xml"])[0] == 2
    assert run_cli(["dump", "--l", "1", "--object", "nope"])[0] == 2
    unwritable = str(tmp_path / "missing" / "x.json")
    assert run_cli(["verify", "--l", "1", "--out", unwritable])[0] == 2


def test_cli_verify_refuses_a_directory_before_any_check_runs(monkeypatch, tmp_path):
    def never(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "run_checks", never)
    code, out, err = run_cli(["verify", "--l", "4", "--out", str(tmp_path)])
    assert (code, out) == (2, b"")
    assert err.endswith(f"error: argument --out: cannot write {str(tmp_path)!r}: Is a directory\n")


def test_cli_bad_values_name_the_known_ones():
    code, out, err = run_cli(["verify", "--l", "1", "--checks", "cartan-matrix,bogus"])
    assert code == 2 and out == b""
    assert "bogus" in err and all(cid in err for cid in CHECK_IDS)
    code, out, err = run_cli(["dump", "--l", "1", "--object", "nope"])
    assert code == 2 and out == b""
    assert "nope" in err and all(name in err for name in checks.DUMP_OBJECTS)


def _assert_bad_rank_cap_exits_2(args):
    for raw in ("abc", "-3", "0"):
        code, out, err = run_cli(args, env={"A2L2_MAX_L": raw})
        assert code == 2, (raw, out, err)
        assert "A2L2_MAX_L" in err


def test_cli_verify_bad_rank_cap_exits_2():
    _assert_bad_rank_cap_exits_2(["verify", "--l", "1"])


def test_cli_dump_bad_rank_cap_exits_2():
    _assert_bad_rank_cap_exits_2(["dump", "--l", "1", "--object", "polys"])


def test_cli_classify_bad_rank_cap_exits_2():
    _assert_bad_rank_cap_exits_2(["classify", "--l", "1"])


def test_cli_failing_report_exits_1(monkeypatch):
    fake = Report(
        1,
        (CheckResult("singular", "fail", 0, {"witness": "forced"}),),
        "fail",
    )
    monkeypatch.setattr(checks, "run_checks", lambda l, ids: fake)
    code, out, _ = run_cli(["verify", "--l", "1"])
    assert code == 1
    assert b"overall: FAIL" in out


def test_cli_dump_matches_library():
    code, out, _ = run_cli(["dump", "--l", "1", "--object", "polys"])
    assert code == 0
    assert out == b"h1*(h1 - 1/2)\n"


def test_cli_classify_json():
    code, out, _ = run_cli(["classify", "--l", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["l"] == 1 and payload["level"] == "-3/2"
    assert len(payload["weights"]) == 2
    first, second = payload["weights"]
    assert first["weight"] == "0" and second["weight"] == "w1"
    for row in payload["weights"]:
        assert row["dominant_integral"] is True
        assert row["admissible"] is True
        assert row["kw_positive"] is True
    assert second["eps_coordinates"] == ["1/2"]


def test_cli_classify_text():
    code, out, _ = run_cli(["classify", "--l", "2", "--format", "text"])
    assert code == 0
    assert b"rank l = 2, level -5/2" in out
    assert out.count(b"admissible") == 4


# the rank cap each stored output was produced under, where it is raised
GOLDEN_MAX_L = {"verify-l5": 5, "algebra-l6": 6}


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify-l1", ["verify", "--l", "1", "--format", "json"]),
        ("verify-l2", ["verify", "--l", "2", "--format", "json"]),
        ("classify-l2", ["classify", "--l", "2", "--format", "json"]),
        ("verify-l5", ["verify", "--l", "5", "--format", "json"]),
        (
            "algebra-l6",
            [
                "verify", "--l", "6", "--checks",
                "singular,nu-fixed,zhu-image,v1-closed-form,polynomials,r0-dim",
                "--format", "json",
            ],
        ),
    ],
)
def test_cli_output_matches_stored_benchmark_output(monkeypatch, name, args):
    if name in GOLDEN_MAX_L:
        monkeypatch.setenv("A2L2_MAX_L", str(GOLDEN_MAX_L[name]))
    else:
        monkeypatch.delenv("A2L2_MAX_L", raising=False)
    code, got, _ = run_cli(args)
    assert code == 0
    if args[0] == "verify":
        # the stored verify outputs carry no per-check timing lines
        got = re.sub(rb'\n *"elapsed_ms": -?\d+,', b"", got)
    assert got == (EXPECTED / f"{name}.out").read_bytes()


def _golden_hashes(name: str) -> dict[str, str]:
    lines = (GOLDEN / name).read_text().splitlines()
    return {key: digest for digest, key in (line.split() for line in lines)}


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("l", (7, 8, 9, 10, 11, 12, 13, 14))
def test_cli_classify_matches_golden_above_default_cap(monkeypatch, l, fmt):
    # l = 7, 8 are stored whole; l = 9..14 by the sha256 of the output.
    # The hashes at l = 15, 16 are stored too, but `classify --format json`
    # writes 45 MB at l = 16, so they stay out of the suite
    monkeypatch.setenv("A2L2_MAX_L", "14")
    code, out, _ = run_cli(["classify", "--l", str(l), "--format", fmt])
    assert code == 0
    stored = GOLDEN / f"classify-l{l}-{fmt}.out"
    if stored.exists():
        assert out == stored.read_bytes()
    else:
        digest = hashlib.sha256(out).hexdigest()
        assert digest == _golden_hashes("classify-sha256.txt")[stored.stem]


@pytest.mark.parametrize(
    "l, which",
    [(l, which) for l in range(1, 7) for which in ("zhu-image", "v1", "polys")]
    + [(l, "singular") for l in range(1, 9)],
)
def test_cli_dump_matches_golden(monkeypatch, l, which):
    monkeypatch.setenv("A2L2_MAX_L", "8")
    code, out, _ = run_cli(["dump", "--l", str(l), "--object", which])
    assert code == 0
    assert out == (GOLDEN / f"dump-{which}-l{l}.out").read_bytes()


# the hashes of verify at l = 15, 16 are stored too, but those runs take
# 6-9 s at l = 16, so they stay out of the suite
@pytest.mark.parametrize("l", (6, 7, 8, 9, 10, 11, 12, 13, 14))
def test_cli_verify_json_matches_golden_hash(monkeypatch, l):
    monkeypatch.setenv("A2L2_MAX_L", "14")
    code, out, _ = run_cli(["verify", "--l", str(l), "--format", "json"])
    assert code == 0
    got = re.sub(rb'\n *"elapsed_ms": -?\d+,', b"", out)
    digest = hashlib.sha256(got).hexdigest()
    assert digest == _golden_hashes("verify-json-sha256.txt")[f"verify-l{l}"]


# the eight checks of the algebra half, named as the stored digests name them
EIGHT_ALGEBRA_CHECKS = (
    "cartan-matrix,g1-dim,singular,nu-fixed,zhu-image,v1-closed-form,polynomials,r0-dim"
)


# the algebra half, which grows polynomially, above the classification's
# reach: the eight algebra checks and three dumps, by digest.  The verify
# hashes at l = 48, 64 are stored too, but those runs take 8-18 s, so they
# stay out of the suite
@pytest.mark.parametrize("l", (24, 32))
def test_algebra_half_matches_golden_hash_above_the_cap(monkeypatch, l):
    monkeypatch.setenv("A2L2_MAX_L", str(l))
    hashes = _golden_hashes("algebra-sha256.txt")
    try:
        code, out, _ = run_cli(
            ["verify", "--l", str(l), "--checks", EIGHT_ALGEBRA_CHECKS, "--format", "json"]
        )
        assert code == 0
        got = re.sub(rb'\n *"elapsed_ms": -?\d+,', b"", out)
        assert hashlib.sha256(got).hexdigest() == hashes[f"algebra-verify-l{l}"]
        for which in ("zhu-image", "v1", "polys"):
            code, out, _ = run_cli(["dump", "--l", str(l), "--object", which])
            assert code == 0
            assert hashlib.sha256(out).hexdigest() == hashes[f"dump-{which}-l{l}"]
    finally:
        clear_per_rank_caches()


@pytest.mark.parametrize(
    "target, args",
    [
        ("dump_object", ["dump", "--l", "1", "--object", "weights"]),
        ("admissibility_table", ["classify", "--l", "1"]),
        ("admissibility_table", ["classify", "--l", "1", "--format", "text"]),
    ],
)
def test_cli_internal_error_exits_3(monkeypatch, target, args):
    def broken(*_args):
        raise RuntimeError("boom")

    # each command imports its pipeline names when it runs, from their home
    home = {"dump_object": checks, "admissibility_table": classify}[target]
    monkeypatch.setattr(home, target, broken)
    code, out, err = run_cli(args)
    assert code == 3
    assert out == b""
    assert err == "Error: internal error: RuntimeError: boom\n"


# ------------------------------------------------------ the entry point

def _exit_code(args) -> int:
    """The code of the SystemExit that the console script's call raises."""
    with pytest.raises(SystemExit) as exited:
        main(args=args)
    return exited.value.code


@pytest.mark.parametrize(
    "args, expected",
    [
        (["verify", "--l", "1", "--checks", "g1-dim"], 0),
        (["classify", "--l", "1"], 0),
        (["--help"], 0),
        (["classify", "--help"], 0),
        ([], 2),
        (["frobnicate"], 2),
        (["classify", "--l", "abc"], 2),
        (["classify", "--l", "1", "--form", "json"], 2),
        (["verify", "--l", "1", "--check", "g1-dim"], 2),
        (["classify", "--l", "1", "-h"], 2),
    ],
)
def test_main_exit_codes(monkeypatch, capsys, args, expected):
    # the program name is fixed: it does not come from sys.argv[0]
    monkeypatch.setattr(sys, "argv", ["cli.py"])
    assert _exit_code(args) == expected
    out, err = capsys.readouterr()
    if expected == 2:
        # usage errors go to stderr, under the program's own name
        assert out == "" and err.startswith("usage: a2l2")


FAILED_REPORT = Report(1, (CheckResult("singular", "fail", 0, {}),), "fail")


def _broken(*_args):
    raise KeyError("boom")


def _stub(monkeypatch, stub: str) -> None:
    """Force exit code 1 ("fail") or 3 ("boom") in this process, as
    ENTRY_PROBE does in a child; "none" changes nothing."""
    if stub == "fail":
        monkeypatch.setattr(checks, "run_checks", lambda l, ids: FAILED_REPORT)
    elif stub == "boom":
        monkeypatch.setattr(classify, "admissibility_table", _broken)


def test_main_exit_codes_on_failure_and_internal_error(monkeypatch, capsys):
    _stub(monkeypatch, "fail")
    assert _exit_code(["verify", "--l", "1"]) == 1
    _stub(monkeypatch, "boom")
    assert _exit_code(["classify", "--l", "1"]) == 3
    assert capsys.readouterr().err == "Error: internal error: KeyError: 'boom'\n"


# (args, stub, exit code): one case of each code of the entry point
ENTRY_CASES = [
    (["classify", "--l", "1"], "none", 0),
    (["verify", "--l", "1"], "fail", 1),
    (["frobnicate"], "none", 2),
    (["classify", "--l", "1"], "boom", 3),
]

# The console script's call in a fresh interpreter, after the stub named by
# the first argument; an atexit hook then reports whether the heap is frozen.
ENTRY_PROBE = """
import atexit, gc, sys
from a2l2 import checks, classify
from a2l2.checks import CheckResult, Report
from a2l2.cli import main

def broken(*_args):
    raise KeyError("boom")

stub = sys.argv.pop(1)
if stub == "fail":
    report = Report(1, (CheckResult("singular", "fail", 0, {}),), "fail")
    checks.run_checks = lambda l, ids: report
elif stub == "boom":
    classify.admissibility_table = broken
atexit.register(lambda: sys.stderr.write(f"frozen: {gc.get_freeze_count() > 0}\\n"))
main()
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("A2L2_MAX_L", None)
    return env


@pytest.mark.parametrize("args, stub, expected", ENTRY_CASES)
def test_console_script_call_matches_the_in_process_call(monkeypatch, args, stub, expected):
    child = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE, stub, *args],
        env=_child_env(),
        capture_output=True,
        timeout=60,
    )
    monkeypatch.delenv("A2L2_MAX_L", raising=False)
    _stub(monkeypatch, stub)
    code, out, err = run_cli(args)
    assert child.returncode == code == expected
    assert child.stdout == out
    if expected == 3:
        assert err == "Error: internal error: KeyError: 'boom'\n"
    # the atexit hook still runs; a usage error exits inside the parser,
    # before any command has run, so only then is the heap not frozen
    assert child.stderr.decode() == err + f"frozen: {expected != 2}\n"


@pytest.mark.parametrize("args, stub, expected", ENTRY_CASES)
def test_in_process_call_freezes_nothing(monkeypatch, args, stub, expected):
    _stub(monkeypatch, stub)
    frozen = gc.get_freeze_count()
    assert _exit_code(args) == expected
    assert gc.get_freeze_count() == frozen


# Runs the console script's call in a fresh interpreter, then lists the
# modules it loaded on stderr.
MODULES_PROBE = """
import sys
from a2l2.cli import main
try:
    if sys.argv[1:]:
        main()
finally:
    sys.stderr.write(" ".join(sys.modules))
"""


def _cold_start(args) -> tuple[set[str], bytes]:
    """(modules loaded, stdout) of the console script's call on `args` in a
    fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, *args],
        env=_child_env(),
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stderr.decode().split()), child.stdout


@pytest.mark.parametrize("args", [[], ["classify", "--l", "2"]])
def test_cold_start_loads_no_algebra_half(args):
    loaded, out = _cold_start(args)
    assert "a2l2.cli" in loaded
    unused = {
        "click", "a2l2.checks", "a2l2.twzhu", "a2l2.vacuum", "a2l2.envelope", "dataclasses",
        # the integer weight table needs neither the exact kernel nor Fractions
        "a2l2.liealg", "a2l2.linalg", "fractions", "decimal",
    }
    assert not loaded & unused
    if args:
        assert out == (EXPECTED / "classify-l2.out").read_bytes()


ALGEBRA_CHECKS = "singular,nu-fixed,zhu-image,v1-closed-form,polynomials,r0-dim"


def test_cold_start_of_the_algebra_checks_loads_no_classification_layer():
    loaded, out = _cold_start(["verify", "--l", "2", "--checks", ALGEBRA_CHECKS])
    assert {"a2l2.checks", "a2l2.twzhu"} <= loaded
    assert not loaded & {"a2l2.affroots", "a2l2.classify", "dataclasses"}
    assert out.decode().endswith("overall: PASS\n")


def _traced_cli_constant(name: str):
    """The literal value bound to `name` at the top of bench/traced_cli.py."""
    tree = ast.parse((ROOT / "bench" / "traced_cli.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )


def test_benchmark_layers_name_every_module():
    # bench/traced_cli.py imports each name of its LAYERS tuple as a module
    # of the package, so no module may be added, removed or renamed without
    # that tuple following
    layers = _traced_cli_constant("LAYERS")
    for name in layers:
        assert importlib.import_module(f"a2l2.{name}").__name__ == f"a2l2.{name}"
    modules = {p.stem for p in (ROOT / "src" / "a2l2").glob("*.py")} - {"__init__"}
    assert sorted(layers) == sorted(modules)


def test_benchmark_counted_and_timed_names_resolve():
    # bench/traced_cli.py creates the counter of a COUNTED name only when it
    # finds that function at its module path, so a function renamed or moved
    # (say `affroots.ip` to `_ip`) drops its `<name>.calls` metric from every
    # traced run without an error.  The traced benchmark run then prints one
    # per-layer metric short and is refused as malformed output, which only
    # the benchmark saw until this test; TIMED names are found the same way
    names = [*_traced_cli_constant("COUNTED"), *_traced_cli_constant("TIMED")]
    assert names
    for name in names:
        layer, *path = name.split(".")
        owner = importlib.import_module(f"a2l2.{layer}")
        for attr in path:
            # traced_cli wraps public names only, found in their owner's own
            # namespace (a class attribute, not an inherited one)
            assert not attr.startswith("_"), name
            assert attr in vars(owner), name
            owner = vars(owner)[attr]
        # a function (plain or lru_cache) defined in its module
        assert isinstance(owner, types.FunctionType) or hasattr(owner, "cache_info"), name
        assert owner.__module__ == f"a2l2.{layer}", name
