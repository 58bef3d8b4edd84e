import pytest
from hypothesis import given, settings, strategies as st

from dwpe.complexity import (
    BetaReport,
    beta_report,
    centralized_filter_dimension,
    distributed_filter_dimension,
)
from dwpe.errors import InvalidInputError

TABLE_DIMS = [
    # (num_nodes, filter_order, distributed dim, centralized dim)
    (6, 26, 31, 156),
    (9, 26, 34, 234),
    (12, 26, 37, 312),
    (4, 40, 43, 160),
    (6, 40, 45, 240),
    (8, 40, 47, 320),
]

TABLE_BETA = [
    # (num_nodes, filter_order, beta_mul, beta_div, beta_solve) as printed
    (6, 26, 0.042, 0.205, 0.009),
    (9, 26, 0.022, 0.150, 0.003),
    (12, 26, 0.015, 0.122, 0.002),
    (4, 40, 0.076, 0.275, 0.021),
    (6, 40, 0.037, 0.192, 0.007),
    (8, 40, 0.023, 0.150, 0.003),
]


@pytest.mark.parametrize("m,order,dist_dim,cent_dim", TABLE_DIMS)
def test_filter_dimensions_published(m, order, dist_dim, cent_dim):
    assert distributed_filter_dimension(m, order) == dist_dim
    assert centralized_filter_dimension(m, order) == cent_dim


def test_dimension_validation():
    with pytest.raises(InvalidInputError):
        distributed_filter_dimension(0, 26)


@pytest.mark.parametrize("m,order,bmul,bdiv,bsolve", TABLE_BETA)
def test_beta_published_rounding(m, order, bmul, bdiv, bsolve):
    rep = beta_report(m, order)
    # agreement within half a unit of the printed digit
    assert abs(rep.beta_mul - bmul) <= 0.0005 + 1e-12
    assert abs(rep.beta_div - bdiv) <= 0.0005 + 1e-12
    assert abs(rep.beta_solve - bsolve) <= 0.0005 + 1e-12


def test_beta_solve_cubic_identity():
    for m, order, *_ in TABLE_BETA:
        rep = beta_report(m, order)
        ratio = (order + m) / (m * order)
        assert rep.beta_solve == pytest.approx(ratio**3, rel=1e-14)
        assert rep.beta_mul == pytest.approx(ratio**2, rel=1e-14)
        assert rep.beta_div == pytest.approx(ratio, rel=1e-14)


def test_beta_requires_multiple_nodes():
    with pytest.raises(InvalidInputError):
        beta_report(1, 26)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(3, 64), m=st.integers(2, 16))
def test_beta_in_unit_interval(order, m):
    rep = beta_report(m, order)
    for value in (rep.beta_mul, rep.beta_div, rep.beta_solve):
        assert 0.0 < value < 1.0 or (value == 1.0 and m == 2 and order == 3)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(4, 64))
def test_beta_monotone_in_nodes(order):
    last = None
    for m in range(2, 17):
        rep = beta_report(m, order)
        if last is not None:
            assert rep.beta_mul <= last.beta_mul
            assert rep.beta_div <= last.beta_div
            assert rep.beta_solve <= last.beta_solve
        last = rep


def test_beta_report_type_validates():
    with pytest.raises(InvalidInputError):
        BetaReport(num_nodes=4, filter_order=10, beta_mul=1.2, beta_div=0.5, beta_solve=0.1)
