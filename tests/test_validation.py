import pytest
from scipy import special

from thuwb import validation


def test_coverage_is_the_student_t_quantile():
    # _measure splits a check into at least two drops: one degree of freedom or more
    for df in [*range(1, 201), 999, 10**4, 10**5, 999_999, 10**6]:
        assert validation._coverage(df + 1) == pytest.approx(special.stdtrit(df, 0.99865), rel=1e-12), df
