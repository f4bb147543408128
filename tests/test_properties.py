"""Property tests of the weight-space operators for random p and w."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from marketgraph.laplacian import (
    degrees_from_weights,
    dual_to_pairs,
    laplacian_adjoint,
    laplacian_from_weights,
    pair_count,
    validate_laplacian,
    weights_from_laplacian,
)

nodes = st.integers(min_value=2, max_value=12)
values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def _close(a, b, scale):
    """``a == b`` up to rounding in sums of terms whose absolute values add to ``scale``."""
    return abs(a - b) <= 1e-13 * (1.0 + scale)


@given(nodes.flatmap(lambda p: st.tuples(arrays(float, pair_count(p), elements=values),
                                         arrays(float, (p, p), elements=values))))
def test_laplacian_adjoint_identity(case):
    # <L(w), M> = <w, L*(M)> for any w and any square M, symmetric or not
    w, M = case
    L = laplacian_from_weights(w)
    lhs, rhs = float(np.sum(L * M)), float(w @ laplacian_adjoint(M))
    assert _close(lhs, rhs, float(np.sum(np.abs(L) * np.abs(M))) + float(np.abs(w) @ laplacian_adjoint(np.abs(M))))


@given(nodes.flatmap(lambda p: st.tuples(arrays(float, pair_count(p), elements=values),
                                         arrays(float, p, elements=values))))
def test_dual_to_pairs_is_the_degree_adjoint(case):
    # <deg(w), v> = <w, B^T v>, and deg(w) is the diagonal of L(w)
    w, v = case
    d = degrees_from_weights(w)
    lhs, rhs = float(d @ v), float(w @ dual_to_pairs(v))
    assert _close(lhs, rhs, float(np.abs(w) @ dual_to_pairs(np.abs(v))))
    assert np.allclose(d, np.diag(laplacian_from_weights(w)), rtol=1e-13, atol=1e-12)


@given(nodes.flatmap(lambda p: arrays(float, pair_count(p), elements=weights)))
def test_nonnegative_weights_give_a_laplacian_and_round_trip(w):
    # L(w) for w >= 0 passes every invariant, and reading its weights back
    # returns w exactly, so rebuilding gives the same matrix bit for bit
    L = laplacian_from_weights(w)
    validate_laplacian(L)
    back = weights_from_laplacian(L)
    assert np.array_equal(back, w)
    assert np.array_equal(laplacian_from_weights(back), L)
