"""Reproduction suites behind the `verify` CLI command.

table1: the five best-construction bases and the upper-bound bases,
reproduced to three decimal places from exact values.
lemmas: the golden corpus at exact integer equality over GF(2), GF(3)
and the rationals, plus the closed-form cross-checks.
"""

from __future__ import annotations

from decimal import Decimal
from math import floor

from .constructions import (
    fano_bip,
    golden_cases,
    neighbourhood_power,
    union_of_cliques,
    verify_case,
)
from .graphs import complete, crown
from .homology import GF2, GF3, RATIONALS, FieldSpec
from .invariants import (
    Enclosure,
    _root_of_power,
    beta_complete_closed,
    beta_crown_closed,
    gamma_enclosure,
    hochster_beta,
    theta_enclosure,
)

# (base name, exact value as (integer, root degree), published 3-decimal base)
CONSTRUCTION_BASES = [
    ("b-general", (4, 5), Decimal("1.320")),
    ("b-triangle-free", (8, 14), Decimal("1.160")),
    ("b-neighbourhood", (3, 4), Decimal("1.316")),
    ("beta-general", (1794, 9), Decimal("2.299")),
    ("beta-triangle-free", (beta_crown_closed(18), 36), Decimal("2.070")),
]


def _matches_3dp(enc: Enclosure, published: Decimal) -> bool:
    """True when the enclosed base agrees with the published 3-decimal
    figure to within one unit in the last place (published tables mix
    rounding and truncation and are occasionally a half-ulp off).
    floor(10^4 lo) is the base's four-decimal truncation when no multiple
    of 10^-4 lies in (lo, hi]; tests check that for every table base."""
    base_milli = Decimal(floor(enc.lo * 10**4)) / 10  # base * 1000, truncated to 0.1
    return abs(base_milli - published * 1000) <= Decimal("1.05")


def _enclosure_3dp(enc: Enclosure) -> Decimal:
    return Decimal(enc.decimal_str(25)).quantize(Decimal("0.001"))


def run_table1(field: FieldSpec) -> dict:
    """Reproduce the summary-table bases from exact construction values."""
    rows = []
    # recompute each base's integer value with the homology engine first
    engine_values = {
        "b-general": verify_case(union_of_cliques(5, 5), field),
        "b-triangle-free": verify_case(fano_bip(), field),
        "b-neighbourhood": verify_case(neighbourhood_power(4), field),
        "beta-general": {
            "computed": hochster_beta(complete(9), field).beta_total,
            "expected": beta_complete_closed(9),
        },
        "beta-triangle-free": {
            "computed": hochster_beta(crown(5), field).beta_total,
            "expected": beta_crown_closed(5),
        },
    }
    for name, (value, degree), published in CONSTRUCTION_BASES:
        engine = engine_values[name]
        base = _root_of_power(value, degree)
        rows.append(
            {
                "name": name,
                "exact_value": value,
                "root_degree": degree,
                "base_3dp": str(_enclosure_3dp(base)),
                "published_base": str(published),
                "engine_computed": engine["computed"],
                "engine_expected": engine["expected"],
                "pass": _matches_3dp(base, published)
                and engine["computed"] == engine["expected"],
            }
        )
    theta = theta_enclosure(4)
    gamma = gamma_enclosure(3)
    upper = [
        ("theta", _enclosure_3dp(theta), Decimal("1.320")),
        ("gamma", _enclosure_3dp(gamma), Decimal("1.250")),
        ("gamma-squared", _enclosure_3dp(gamma * gamma), Decimal("1.562")),
        ("theta-plus-1", _enclosure_3dp(theta.plus_int(1)), Decimal("2.320")),
        ("gamma-plus-1", _enclosure_3dp(gamma.plus_int(1)), Decimal("2.250")),
    ]
    upper_rows = [
        {"name": name, "base_3dp": str(got), "published_base": str(want),
         "pass": got == want}
        for name, got, want in upper
    ]
    ok = all(r["pass"] for r in rows) and all(r["pass"] for r in upper_rows)
    return {"suite": "table1", "constructions": rows, "upper_bounds": upper_rows, "all_pass": ok}


def run_lemmas(field: FieldSpec) -> dict:
    """Golden corpus over three fields plus closed-form cross-checks."""
    results = []
    for fld in (GF2, GF3, RATIONALS):
        for case in golden_cases():
            results.append(verify_case(case, fld))
    closed = [
        {
            "name": f"{family}-closed-form-s{s}",
            "computed": hochster_beta(build(s), field).beta_total,
            "expected": closed_form(s),
        }
        for family, build, closed_form, top in (
            ("complete", complete, beta_complete_closed, 7),
            ("crown", crown, beta_crown_closed, 4),
        )
        for s in range(1, top + 1)
    ]
    for entry in closed:
        entry["pass"] = entry["computed"] == entry["expected"]
    ok = all(r["pass"] for r in results) and all(r["pass"] for r in closed)
    return {"suite": "lemmas", "golden": results, "closed_forms": closed, "all_pass": ok}


def run_suite(suite: str, field: FieldSpec) -> dict:
    if suite == "table1":
        return run_table1(field)
    if suite == "lemmas":
        return run_lemmas(field)
    t1 = run_table1(field)
    lm = run_lemmas(field)
    return {
        "suite": "all",
        "table1": t1,
        "lemmas": lm,
        "all_pass": t1["all_pass"] and lm["all_pass"],
    }
