"""Property tests of the closed-form spectra (spectra): the identities the
algebra's relations impose on the scalars of V_j, Y_j and U on each
component, checked on the scalars alone, over primes p, 1 <= n <= 6 and
components and levels max(r, 1) <= i, j <= n."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke_lab.spectra import table_eigenvalue, u_eigenvalue

PRIMES = (2, 3, 5, 7, 11, 13, 29, 101)


@st.composite
def components(draw):
    """(p, n, i, j) with 1 <= i, j <= n: every max(r, 1) for 0 <= r <= n."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    return p, n, draw(st.integers(1, n)), draw(st.integers(1, n))


@given(components())
def test_y_is_the_sum_of_the_v_above_it(cell):
    p, n, i, j = cell
    assert table_eigenvalue("Y", p, n, i, j) == sum(
        table_eigenvalue("V", p, n, i, k) for k in range(j, n + 1)
    )


@given(components())
def test_y_is_a_multiple_of_an_idempotent(cell):
    p, n, i, j = cell
    y = table_eigenvalue("Y", p, n, i, j)
    assert y * y == p ** (n - j) * y


@given(st.sampled_from(PRIMES), st.integers(1, 6))
def test_u_roots_satisfy_the_u_relation(p, n):
    # U U = p^(n-1)(p-1) U + p^n Y_1, and Y_1 is p^(n-1) on the bottom block
    y1 = table_eigenvalue("Y", p, n, 1, 1)
    assert y1 == p ** (n - 1)
    for comp in ("w+", "w-"):
        u = u_eigenvalue(comp, p, n)
        assert u * u == p ** (n - 1) * (p - 1) * u + p**n * y1
    assert u_eigenvalue("w+", p, n) != u_eigenvalue("w-", p, n)


@given(st.text().filter(lambda kind: kind not in ("V", "Y")), components())
def test_an_unknown_kind_is_refused(kind, cell):
    with pytest.raises(ValueError, match="kind"):
        table_eigenvalue(kind, *cell)
