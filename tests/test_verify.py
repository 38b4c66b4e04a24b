from math import floor

import pytest

from flagbetti.homology import GF2
from flagbetti.verify import CONSTRUCTION_BASES, _base_enclosure, run_table1


@pytest.fixture(scope="module")
def table1():
    return run_table1(GF2)


def test_construction_rows_print_three_decimals(table1):
    rows = {r["name"]: (r["base_3dp"], r["pass"]) for r in table1["constructions"]}
    assert rows == {
        "b-general": ("1.320", True),
        "b-triangle-free": ("1.160", True),
        "b-neighbourhood": ("1.316", True),
        "beta-general": ("2.299", True),
        "beta-triangle-free": ("2.071", True),
    }


@pytest.mark.parametrize("value, degree", [vd for _, vd, _ in CONSTRUCTION_BASES])
def test_base_enclosure_gives_exact_truncation(value, degree):
    enc = _base_enclosure(value, degree)
    t = floor(enc.lo * 10**4)
    assert t == floor(enc.hi * 10**4)
    # t / 10^4 <= value^(1/degree) < (t + 1) / 10^4, in integers
    assert t**degree <= value * 10 ** (4 * degree) < (t + 1) ** degree
