import numpy as np
import pytest

from marketgraph.laplacian import (
    DisconnectedGraphWarning,
    degrees_from_weights,
    dual_to_pairs,
    laplacian_adjoint,
    laplacian_from_weights,
    node_count,
    num_components,
    pair_count,
    pair_indices,
    spectral_summary,
    time_consistency,
    validate_laplacian,
    weights_from_laplacian,
)
from marketgraph.preprocessing import correlation_from_covariance, sample_covariance
from marketgraph.solvers import learn_connected_mle
from marketgraph.synthetic import random_k_component_graph, score_recovery, simulate_factor_market
import reference_ops as ref
from reference_ops import bitwise_equal, log_gdet


def union_find_components(w, p):
    """Independent component counter over the positive-weight edge set."""
    parent = list(range(p))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    m = 0
    for i in range(p):
        for j in range(i + 1, p):
            if w[m] > 0:
                parent[find(i)] = find(j)
            m += 1
    return len({find(i) for i in range(p)})


def random_weights(rng, p, density=0.7, lo=0.5, hi=1.5):
    m = pair_count(p)
    return rng.uniform(lo, hi, m) * (rng.random(m) < density)


def random_connected_weights(rng, p, density=0.5):
    while True:
        w = random_weights(rng, p, density)
        if union_find_components(w, p) == 1:
            return w


def test_pair_count_node_count_roundtrip():
    for p in range(2, 40):
        assert node_count(pair_count(p)) == p
    with pytest.raises(ValueError):
        node_count(4)  # not p(p-1)/2 for any p
    with pytest.raises(ValueError, match="at least 2 nodes"):
        pair_count(1)


def test_laplacian_from_weights_examples():
    assert np.array_equal(
        laplacian_from_weights(np.array([1.0])), np.array([[1.0, -1.0], [-1.0, 1.0]])
    )
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.array_equal(laplacian_from_weights(np.array([1.0, 0.0, 2.0])), expected)
    assert np.array_equal(laplacian_from_weights(np.zeros(3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"length 2 is not p\(p-1\)/2"):
        laplacian_from_weights(np.ones(2))


def test_laplacian_from_weights_is_the_reference_build_bitwise():
    # the reference scatters into zeros, mirrors with L += L.T and fills the
    # diagonal with np.fill_diagonal; a zero weight must stay +0.0 off the
    # diagonal (a CSV cell "0", not "-0")
    rng = np.random.default_rng(4)
    for p in (2, 3, 20):
        m = pair_count(p)
        off_diagonal = ~np.eye(p, dtype=bool)
        signed_zeros = np.where(np.arange(m) % 2 == 0, 0.0, -0.0)
        for w in (np.zeros(m), signed_zeros, random_weights(rng, p), random_weights(rng, p, density=0.2)):
            w[0] = 0.0  # an exact zero in every case
            L = laplacian_from_weights(w)
            assert bitwise_equal(L, ref.laplacian_from_weights(w))
            assert not np.signbit(L[off_diagonal & (L == 0.0)]).any()


def test_an_edgeless_node_has_a_positive_zero_degree():
    # the negated row sum of an edgeless node would be -0.0, a CSV cell "-0"
    L = laplacian_from_weights(np.array([1.0, 0.0, 0.0]))
    assert L[2, 2] == 0.0 and not np.signbit(L[2, 2])
    assert not np.signbit(laplacian_from_weights(np.zeros(6))).any()


def test_weights_from_laplacian_examples():
    assert np.array_equal(
        weights_from_laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]])), np.array([1.0])
    )
    assert np.array_equal(weights_from_laplacian(np.zeros((3, 3))), np.zeros(3))
    with pytest.raises(ValueError, match="symmetric"):
        weights_from_laplacian(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="row sums"):
        weights_from_laplacian(np.array([[2.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        weights_from_laplacian(np.zeros((2, 3)))


def test_weights_from_laplacian_clamps_roundoff():
    L = laplacian_from_weights(np.array([1.0, 0.0, 2.0]))
    L[0, 2] = L[2, 0] = 5e-13  # tiny positive off-diagonal from solver round-off
    w = weights_from_laplacian(L)
    assert w[1] == 0.0


def test_a_positive_off_diagonal_entry_is_not_a_laplacian():
    # weights_from_laplacian is the one Laplacian rule, and score_recovery reads through it
    L = laplacian_from_weights(np.array([1.0, 0.0, 2.0]))
    for entry, rejected in ((5e-7, False), (1e-3, True)):
        M = L.copy()
        M[0, 2] = M[2, 0] = entry
        M[0, 0] -= entry
        M[2, 2] -= entry
        if not rejected:  # round-off below 1e-6 is clamped
            assert weights_from_laplacian(M)[1] == 0.0
            continue
        with pytest.raises(ValueError, match="not a Laplacian: positive off-diagonal entry"):
            weights_from_laplacian(M)
        with pytest.raises(ValueError, match="positive off-diagonal entry"):
            score_recovery(M, random_k_component_graph(3, 1, seed=0))


def test_construction_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = int(rng.integers(2, 31))
        w = random_weights(rng, p)
        L = laplacian_from_weights(w)
        assert np.array_equal(L, L.T)  # symmetry is exact by construction
        scale = max(1.0, float(np.trace(L)))
        assert np.abs(L.sum(axis=1)).max() <= 1e-12 * scale
        assert np.array_equal(weights_from_laplacian(L), w)  # exact round-trip
        validate_laplacian(L)


def test_laplacian_adjoint_is_adjoint():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = int(rng.integers(2, 61))
        w = rng.uniform(0, 2, pair_count(p)) * (rng.random(pair_count(p)) < 0.6)
        M = rng.standard_normal((p, p))
        L = laplacian_from_weights(w)
        assert bitwise_equal(L, ref.laplacian_from_weights(w))
        for MM in (M, M.T, np.asfortranarray(M), M + M.T):
            assert bitwise_equal(laplacian_adjoint(MM), ref.laplacian_adjoint(MM))
        lhs = float(np.sum(L * M))
        rhs = float(w @ laplacian_adjoint(M))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_degrees_from_weights():
    w = np.array([1.0, 0.0, 2.0])  # pairs (0,1),(0,2),(1,2)
    assert np.array_equal(degrees_from_weights(w), np.array([1.0, 3.0, 2.0]))
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = int(rng.integers(2, 61))
        w = rng.uniform(0, 2, pair_count(p)) * (rng.random(pair_count(p)) < 0.6)
        v = rng.standard_normal(p)
        d = degrees_from_weights(w)
        assert bitwise_equal(d, ref.degrees_from_weights(w))
        assert bitwise_equal(dual_to_pairs(v), ref.dual_to_pairs(v))
        lhs = float(d @ v)
        rhs = float(w @ dual_to_pairs(v))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pair_indices_are_cached_and_read_only():
    for p in (2, 3, 17):
        iu, ju = pair_indices(p)
        ref_iu, ref_ju = np.triu_indices(p, k=1)
        assert np.array_equal(iu, ref_iu) and np.array_equal(ju, ref_ju)
        assert pair_indices(p)[0] is iu
        for a in (iu, ju):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def test_log_gdet_examples():
    assert log_gdet(np.array([[1.0, -1.0], [-1.0, 1.0]])) == pytest.approx(np.log(2.0))
    K3 = laplacian_from_weights(np.ones(3))
    assert log_gdet(K3) == pytest.approx(2.0 * np.log(3.0))


def test_log_gdet_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    w = random_connected_weights(rng, 5)
    L = laplacian_from_weights(w)
    lam = np.linalg.eigvalsh(L)
    expected = float(np.log(np.prod(lam[1:])))  # product of positive eigenvalues
    assert log_gdet(L) == pytest.approx(expected, rel=1e-10)


def test_log_gdet_rank_one_correction_identity():
    rng = np.random.default_rng(3)
    for _ in range(60):
        p = int(rng.integers(2, 31))
        L = laplacian_from_weights(random_connected_weights(rng, p))
        J = np.full((p, p), 1.0 / p)
        _, ld = np.linalg.slogdet(L + J)
        assert log_gdet(L) == pytest.approx(ld, rel=1e-8)


def test_log_gdet_warns_on_disconnected():
    L = laplacian_from_weights(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0]))  # 2x K2
    with pytest.warns(DisconnectedGraphWarning):
        value = log_gdet(L)
    assert value == pytest.approx(np.log(2.0) + np.log(2.0))


def test_spectral_summary_and_log_gdet_need_two_nodes():
    for fn in (spectral_summary, log_gdet):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            fn(np.zeros((1, 1)))


def test_spectral_summary_examples():
    K3 = laplacian_from_weights(np.ones(3))
    s = spectral_summary(K3)
    assert np.allclose(s.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    assert s.nullity == 1
    assert s.algebraic_connectivity == pytest.approx(3.0)
    assert s.spectral_radius == pytest.approx(3.0)

    two_k2 = laplacian_from_weights(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
    s = spectral_summary(two_k2)
    assert s.nullity == 2
    assert abs(s.algebraic_connectivity) <= 1e-12

    P3 = laplacian_from_weights(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(spectral_summary(P3).eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_spectral_summary_trace_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = int(rng.integers(2, 31))
        L = laplacian_from_weights(random_weights(rng, p))
        s = spectral_summary(L)
        tr = float(np.trace(L))
        assert float(s.eigenvalues.sum()) == pytest.approx(tr, abs=1e-8 * max(1.0, tr))


def test_num_components_examples():
    assert num_components(laplacian_from_weights(np.ones(3))) == 1
    assert num_components(laplacian_from_weights(np.array([1.0, 0, 0, 0, 0, 1.0]))) == 2
    assert num_components(np.zeros((4, 4))) == 4


@pytest.fixture(scope="module")
def scale_graphs():
    """A connected MLE (p = 20) and a planted 2-component graph (p = 10), with their nullities."""
    sim = simulate_factor_market(p=20, n=200, seed=0)
    mle, _ = learn_connected_mle(correlation_from_covariance(sample_covariance(sim.returns)))
    return {"mle": (mle, 1), "planted": (random_k_component_graph(10, 2, seed=1).L_true, 2)}


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e9])
@pytest.mark.parametrize("graph", ["mle", "planted"])
def test_nullity_does_not_depend_on_the_scale(scale_graphs, graph, c):
    # the zero rule is relative to lambda_max: c * L has the components of L
    L, nullity = scale_graphs[graph]
    assert num_components(c * L) == nullity
    assert spectral_summary(c * L).nullity == nullity


def test_num_components_matches_union_find():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.integers(2, 26))
        w = random_weights(rng, p, density=float(rng.uniform(0.1, 0.9)))
        L = laplacian_from_weights(w)
        assert num_components(L) == union_find_components(w, p)


def test_time_consistency():
    L = laplacian_from_weights(np.array([1.0]))
    assert time_consistency(L, L) == 0.0
    assert time_consistency(L, np.zeros((2, 2))) == pytest.approx(4.0)
    rng = np.random.default_rng(6)
    A = laplacian_from_weights(random_weights(rng, 7))
    B = laplacian_from_weights(random_weights(rng, 7))
    direct = sum((A[i, j] - B[i, j]) ** 2 for i in range(7) for j in range(7))
    assert time_consistency(A, B) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        time_consistency(A, np.zeros((3, 3)))


def test_validate_laplacian_rejects_violations():
    with pytest.raises(ValueError, match="symmetric"):
        validate_laplacian(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="row sums"):
        validate_laplacian(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    with pytest.raises(ValueError, match="off-diagonal"):
        validate_laplacian(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError, match="square"):
        validate_laplacian(np.zeros((2, 3)))
    # passes the symmetry, row-sum (9.99e-10) and sign (1e-12) checks; eigenvalue -1.001e-9
    a, b = -1e-9, 1e-12
    with pytest.raises(ValueError, match="not PSD"):
        validate_laplacian(np.array([[a, b], [b, a]]))
