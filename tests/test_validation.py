import pytest
from scipy import special

from thuwb import validation


def test_coverage_is_the_student_t_quantile():
    # _measure splits a check into at least two drops: one degree of freedom or more
    for df in [*range(1, 201), 999, 10**4, 10**5, 999_999, 10**6]:
        assert validation._coverage(df + 1) == pytest.approx(special.stdtrit(df, 0.99865), rel=1e-12), df


# (name, empirical, stderr, passed, resolved) of every check at 4,000 symbols and
# the default seed, in full precision: any change in the drops, or in the order
# the per-drop sums fold, moves these digits
PINNED = [
    ("ifi variance (short spread)", 0.03060329396958449, 0.0005284241096604069, False, False),
    ("ifi variance (long spread)", 0.06615157453056694, 0.0008019174831424906, False, False),
    ("mai variance (chip_sync)", 1.328444372384374, 0.020184082464174552, False, False),
    ("mai variance (symbol_sync)", 1.2896845728284714, 0.012670346106695568, False, False),
    ("mai variance chip vs symbol sync", 1.328444372384374, 0.023831383832754117, False, False),
    ("mai variance (jitter 0.00 chip)", 1.328444372384374, 0.020184082464174552, False, False),
    ("mai variance (jitter 0.25 chip)", 0.41164854658105876, 0.00627401146269347, False, False),
    ("mai variance (jitter 0.50 chip)", 0.03305126376350664, 0.0006849436936709256, False, False),
    ("mai variance (jitter 0.75 chip)", 0.4100372583405826, 0.017632076153317744, False, False),
    ("mai variance (async average)", 0.2247745768627653, 0.041164555962688594, True, True),
    ("async vs chip-sync-plus-jitter MAI variance", 0.2247745768627653, 0.08661721621504717, True, True),
]


def test_checks_repeat_bit_for_bit():
    results = validation.run_lemma_checks(symbols=4000)
    assert [(c.name, c.empirical, c.stderr, bool(c.passed), bool(c.resolved)) for c in results] == PINNED
