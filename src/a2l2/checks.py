"""Registered verification checks over the whole pipeline.

Each check compares one cached stage of the classification story against
its independent reference (pinned matrices, closed forms, weight formulas,
the admissibility decision procedure).  Checks run in dependency order; a
check whose prerequisite failed is reported as skipped rather than failed,
so a single root cause does not cascade into a wall of red.  The
classification layer (`affroots`, `classify`) is imported by the checks
that use it, so the algebra checks alone never load it.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable, NamedTuple

from . import _exact, _exact_list, level, level_string, validated_rank
from .envelope import doubled_residuals, factored_h_string, uea_string, zero_set
from .liealg import computed_b_cartan, nu
from .linalg import vec_scale
from .twzhu import (
    _odd_count,
    compute_v1,
    lowered_polynomials,
    poly_span_equal,
    projection_context,
    r0_basis,
    reference_polynomials,
    split_singular_vector,
    v1_closed_form,
    zhu_image_closed_form,
    zhu_singular_image,
)
from .vacuum import (
    check_singular,
    positive_mode_sweep,
    singular_vector,
    standard_mode_basis,
    state_string,
)

class CheckResult(NamedTuple):
    id: str
    status: str  # "pass" | "fail" | "skip"
    elapsed_ms: int
    details: dict


class Report(NamedTuple):
    l: int
    checks: tuple[CheckResult, ...]
    overall: str  # "pass" | "fail"


# ----------------------------------------------------------- the checks

def _check_cartan_matrix(l: int) -> tuple[bool, dict]:
    from .affroots import algebra_data, cartan_matrix_from_form

    horizontal = computed_b_cartan(l)
    data = algebra_data(l)
    # the finite B_l matrix is the affine diagram less its node 0
    expected = [list(r[1:]) for r in data.cartan_matrix[1:]]
    affine_ok = cartan_matrix_from_form(l) == data.cartan_matrix
    ok = horizontal == expected and affine_ok
    return ok, {
        "horizontal_matrix": horizontal,
        "horizontal_expected": expected,
        "affine_matrix": [list(r) for r in data.cartan_matrix],
        "affine_matches_bilinear_form": affine_ok,
        "marks": list(data.marks),
        "comarks": list(data.comarks),
        "dual_coxeter": data.h_dual,
    }


def _check_g1_dim(l: int) -> tuple[bool, dict]:
    table = projection_context(l)
    g0, elems, n = table.g0_count, table.elems, 2 * l + 1
    zero_dim = sum(1 for wt in table.weights[g0:] if not any(wt))
    # the grading by index, which `nu-fixed` and the projection read
    even = sum(1 for x in elems[:g0] if nu(x, n) == x)
    total = sum(1 for x in elems[g0:] if nu(x, n) == vec_scale(x, -1))
    ok = zero_dim == l and total == 2 * l * l + 3 * l and even == l * (2 * l + 1)
    return ok, {
        "zero_weight_dim": zero_dim,
        "expected_zero_weight_dim": l,
        "odd_part_dim": total,
        "expected_odd_part_dim": 2 * l * l + 3 * l,
    }


def _check_singular(l: int) -> tuple[bool, dict]:
    basis, v = standard_mode_basis(l), singular_vector(l)
    annihilated = check_singular(basis, v)
    swept = positive_mode_sweep(basis, v)
    weight = basis.weight_of([idx for idx, _ in mono] for mono in v)
    expected_weight = tuple(int(i in (1, 2 * l)) for i in range(1, 2 * l + 1))
    ok = annihilated and swept and weight == expected_weight
    return ok, {
        "raising_annihilation": annihilated,
        "positive_mode_sweep": swept,
        "weight": _exact_list(weight),
        "terms": len(v),
    }


def _check_nu_fixed(l: int) -> tuple[bool, dict]:
    # nu negates a split monomial with an odd number of odd factors
    g0 = projection_context(l).g0_count
    ok = not any(_odd_count(mono, g0) % 2 for mono in split_singular_vector(l))
    return ok, {"fixed_by_twist": ok}


def _check_zhu_image(l: int) -> tuple[bool, dict]:
    alg, image = projection_context(l), zhu_singular_image(l)
    closed, weight = zhu_image_closed_form(l), alg.weight_of(image)
    expected_weight = (4 if l == 1 else 2,) + (0,) * (l - 1)
    ok = image == closed and weight == expected_weight
    return ok, {
        "matches_closed_form": image == closed,
        "monomials": len(image),
        "weight": _exact_list(weight),
        "rendered": uea_string(image, alg),
    }


def _check_v1(l: int) -> tuple[bool, dict]:
    computed = compute_v1(l)
    ok = computed == v1_closed_form(l)
    return ok, {
        "matches_closed_form": ok,
        "monomials": len(computed),
    }


def _check_polynomials(l: int) -> tuple[bool, dict]:
    polys = lowered_polynomials(l)
    adopted = reference_polynomials(l)
    rejected = reference_polynomials(l, plus_half=True)
    ok = polys == adopted and polys != rejected
    return ok, {
        "polynomials": [factored_h_string(p) for p in polys],
        "matches_adopted_constant": polys == adopted,
        "matches_rejected_variant": polys == rejected,
    }


def _check_r0(l: int) -> tuple[bool, dict]:
    orbit, members = r0_basis(l)
    member_polys = [projection_context(l).cartan_polynomial(u) for u in members]
    span_ok = poly_span_equal(member_polys, lowered_polynomials(l))
    ok = len(orbit) == 2 * l * l + 3 * l and len(members) == l and span_ok
    return ok, {
        "orbit_dim": len(orbit),
        "expected_orbit_dim": 2 * l * l + 3 * l,
        "zero_weight_dim": len(members),
        "expected_zero_weight_dim": l,
        "span_matches_polynomials": span_ok,
    }


def _check_classification(l: int) -> tuple[bool, dict]:
    from .classify import all_highest_weights, omega_string, weight_strings

    polys = lowered_polynomials(l)
    found = zero_set(polys)
    formulas = all_highest_weights(l)
    matches = found == frozenset(formulas)
    residuals_ok = not any(any(r) for r in doubled_residuals(polys, formulas))
    ok = matches and len(found) == 2**l and residuals_ok
    names = dict(zip(formulas, weight_strings(l)))
    return ok, {
        "count": len(found),
        "expected_count": 2**l,
        "matches_weight_formulas": matches,
        "all_polynomials_vanish": residuals_ok,
        "weights": sorted(names.get(x) or omega_string(x) for x in found),
    }


def _check_dominant(l: int) -> tuple[bool, dict]:
    from .classify import (
        all_highest_weights, dominant_integral, mu_weight, omega_string, weight_strings,
    )

    kept = {x: name for x, name in zip(all_highest_weights(l), weight_strings(l))
            if dominant_integral(x)}
    expected = frozenset({mu_weight(l, (), False), mu_weight(l, (), True)})
    ok = kept.keys() == expected
    return ok, {
        "count": len(kept),
        "weights": sorted(kept.values()),
        "expected_weights": sorted(map(omega_string, expected)),
    }


def _check_admissible_all(l: int) -> tuple[bool, dict]:
    from .classify import admissibility_table, weight_strings

    rows = []
    ok = True
    for name, (_, report) in zip(weight_strings(l), admissibility_table(l)):
        ok = ok and report.passed
        rows.append(
            {
                "weight": name,
                "condition1": report.cond1_pass,
                "condition2": report.cond2_pass,
                "coroot_span_rank": report.cond2_rank,
            }
        )
    return ok, {"count": len(rows), "weights": rows}


def _check_kw(l: int) -> tuple[bool, dict]:
    from .affroots import algebra_data

    # every classified weight lifts to the studied level, so one sum serves
    num, den = level(l)
    shifted = num + algebra_data(l).h_dual * den
    return shifted > 0, {
        "level_plus_dual_coxeter": _exact(shifted, den),
        "all_positive": shifted > 0,
    }


CheckFn = Callable[[int], "tuple[bool, dict]"]

REGISTRY: tuple[tuple[str, tuple[str, ...], CheckFn], ...] = (
    ("cartan-matrix", (), _check_cartan_matrix),
    ("g1-dim", (), _check_g1_dim),
    ("singular", (), _check_singular),
    ("nu-fixed", ("g1-dim", "singular"), _check_nu_fixed),
    ("zhu-image", ("singular",), _check_zhu_image),
    ("v1-closed-form", ("zhu-image",), _check_v1),
    ("polynomials", ("v1-closed-form",), _check_polynomials),
    ("r0-dim", ("zhu-image", "polynomials"), _check_r0),
    ("classification", ("polynomials",), _check_classification),
    ("dominant", ("classification",), _check_dominant),
    ("admissible", ("classification",), _check_admissible_all),
    ("kw-positivity", ("classification",), _check_kw),
)

CHECK_IDS = tuple(entry[0] for entry in REGISTRY)


def run_checks(l: int, check_ids: Iterable[str] | str = "all") -> Report:
    """Execute the selected checks in dependency order for the given rank.

    `check_ids` is "all", one check id, or an iterable of ids.  A selected
    check is skipped when one of its selected prerequisites failed or was
    skipped; prerequisites that were not selected at all are not required.
    Raises ValueError on an unknown id or an out-of-range rank (the cap is
    raised by A2L2_MAX_L).
    """
    validated_rank(l)
    if check_ids == "all":
        selected = set(CHECK_IDS)
    else:
        selected = {check_ids} if isinstance(check_ids, str) else set(check_ids)
        unknown = selected.difference(CHECK_IDS)
        if unknown:
            raise ValueError(
                "unknown check ids: " + ", ".join(sorted(unknown))
                + "; known: " + ", ".join(CHECK_IDS)
            )
        if not selected:
            raise ValueError("no checks selected")
    statuses: dict[str, str] = {}
    results = []
    for check_id, deps, fn in REGISTRY:
        if check_id not in selected:
            continue
        blocked = [d for d in deps if statuses.get(d) in ("fail", "skip")]
        if blocked:
            result = CheckResult(check_id, "skip", 0, {"blocked_by": blocked})
        else:
            start = time.monotonic()
            try:
                ok, details = fn(l)
            except Exception as exc:  # a crash is an honest failure, not green
                ok, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = int((time.monotonic() - start) * 1000)
            result = CheckResult(check_id, "pass" if ok else "fail", elapsed, details)
        statuses[check_id] = result.status
        results.append(result)
    overall = "fail" if any(r.status == "fail" for r in results) else "pass"
    return Report(l, tuple(results), overall)


# ------------------------------------------------------------- rendering

def render_report(report: Report, format: str = "text") -> str:
    if format == "json":
        payload = {
            "l": report.l,
            "level": level_string(report.l),
            "overall": report.overall,
            "checks": [
                {
                    "id": r.id,
                    "status": r.status,
                    "elapsed_ms": r.elapsed_ms,
                    "details": r.details,
                }
                for r in report.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"rank l = {report.l}, level {level_string(report.l)}"]
    for r in report.checks:
        lines.append(f"  [{r.status.upper():4s}] {r.id} ({r.elapsed_ms} ms)")
        if r.status == "fail":
            lines.append(f"         {json.dumps(r.details, sort_keys=True)}")
        elif r.status == "skip":
            lines.append(f"         blocked by: {', '.join(r.details['blocked_by'])}")
    lines.append(f"overall: {report.overall.upper()}")
    return "\n".join(lines) + "\n"


DUMP_OBJECTS = ("singular", "zhu-image", "v1", "polys", "weights")


def dump_object(l: int, which: str) -> str:
    """Plain-text rendering of one of the central symbolic objects."""
    validated_rank(l)
    if which == "singular":
        return state_string(standard_mode_basis(l), singular_vector(l)) + "\n"
    if which in ("zhu-image", "v1"):
        u = zhu_singular_image(l) if which == "zhu-image" else compute_v1(l)
        return uea_string(u, projection_context(l)) + "\n"
    if which == "polys":
        return "\n".join(map(factored_h_string, lowered_polynomials(l))) + "\n"
    if which == "weights":
        from .classify import weight_strings

        return "\n".join(weight_strings(l)) + "\n"
    raise ValueError(f"unknown object {which!r}")
