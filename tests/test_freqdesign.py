import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfda_secrecy import freqdesign
from rfda_secrecy.cli import main
from rfda_secrecy.errors import ConvergenceError, FixtureError
from rfda_secrecy.freqdesign import (EigenResult, _feasible_basis, _jacobi, build_design_matrix,
                                     default_fixture_path, generate_k, load_frequency_table,
                                     rho1, rho2, symmetric_eigen)
from rfda_secrecy.reference import jacobi_rotations
from rfda_secrecy.sweep import GeneratedK, beta_for_scenario, default_scenario


def rho1_brute(k):
    k = np.asarray(k, dtype=float)
    return sum((a - b) ** 2 for a in k for b in k)


def rho2_brute(k):
    k = np.asarray(k, dtype=float)
    return sum((k[m] - k[n]) * (m - n) for m in range(k.size) for n in range(k.size))


def test_rho1_examples():
    assert rho1([1.0, -1.0]) == pytest.approx(8.0, rel=1e-12)
    assert rho1([1.0, -2.0, 1.0]) == pytest.approx(36.0, rel=1e-12)
    assert rho1([3.7] * 6) == pytest.approx(0.0, abs=1e-9)


def test_rho2_examples():
    assert rho2([1.0, -2.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert rho2([1.0, -1.0]) == pytest.approx(-4.0, rel=1e-12)
    assert rho2([2.5] * 5) == pytest.approx(0.0, abs=1e-9)


def test_rho_closed_forms_match_double_sums():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = rng.standard_normal(int(rng.integers(1, 20))) * rng.uniform(0.1, 30)
        assert rho1(k) == pytest.approx(rho1_brute(k), rel=1e-9, abs=1e-9)
        assert rho2(k) == pytest.approx(rho2_brute(k), rel=1e-9, abs=1e-9)


def test_design_matrix_small_cases():
    with pytest.raises(ValueError):
        build_design_matrix(1)
    assert np.abs(build_design_matrix(2)).max() == 0.0
    u = np.array([1.0, -2.0, 1.0])
    np.testing.assert_allclose(build_design_matrix(3), 12.0 * np.outer(u, u),
                               atol=1e-9)


def test_design_matrix_symmetric_and_annihilates_infeasible_directions():
    for m in (3, 4, 7, 12, 25):
        a = build_design_matrix(m)
        np.testing.assert_allclose(a, a.T, atol=1e-9 * np.abs(a).max())
        ones = np.ones(m)
        idx = np.arange(1, m + 1, dtype=float)
        scale = np.abs(a).max()
        assert np.abs(a @ ones).max() < 1e-9 * scale
        assert np.abs(a @ idx).max() < 1e-9 * scale


@pytest.mark.parametrize("m", [3, 8, 16, 64])
def test_design_matrix_is_a_scaled_projector(m):
    # A = c (I - P) with c = M^3 (M^2 - 1) / 3 and P the orthogonal projector
    # onto span{ones, index}: its spectrum is {0, c}
    ones, idx = _feasible_basis(m)
    c = m ** 3 * (m ** 2 - 1) / 3.0
    expected = c * (np.eye(m) - np.outer(ones, ones) - np.outer(idx, idx))
    error = np.linalg.norm(build_design_matrix(m) - expected)
    assert error <= 1e-14 * np.linalg.norm(expected)


def test_feasible_basis_is_cached_and_read_only():
    ones, idx = _feasible_basis(8)
    assert _feasible_basis(8)[0] is ones
    for vector in (ones, idx):
        with pytest.raises(ValueError):
            vector[0] = 1.0


def test_design_matrix_top_eigenspace():
    # top eigenvalue M^3(M^2-1)/3 with multiplicity M-2, orthogonal to the
    # all-ones and index vectors
    for m in range(3, 33):
        a = build_design_matrix(m)
        eig = symmetric_eigen(a)
        lam_expected = m ** 3 * (m ** 2 - 1) / 3.0
        assert eig.eigenvalues[0] == pytest.approx(lam_expected, rel=1e-9)
        lam_max = eig.eigenvalues[0]
        top = eig.eigenvectors[:, eig.eigenvalues >= lam_max - 1e-6 * lam_max]
        assert top.shape[1] == m - 2
        ones = np.ones(m) / math.sqrt(m)
        idx = np.arange(1, m + 1, dtype=float)
        idx /= np.linalg.norm(idx)
        assert np.abs(ones @ top).max() < 1e-8
        assert np.abs(idx @ top).max() < 1e-8


def test_symmetric_eigen_trivial_matrices():
    eig = symmetric_eigen(np.eye(3))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)
    eig = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=1e-12)
    eig = symmetric_eigen(np.zeros((4, 4)))
    np.testing.assert_allclose(eig.eigenvalues, np.zeros(4), atol=1e-15)


def test_symmetric_eigen_design_matrix_three():
    eig = symmetric_eigen(build_design_matrix(3))
    assert eig.eigenvalues[0] == pytest.approx(72.0, rel=1e-12)
    v = eig.eigenvectors[:, 0]
    u = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
    assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-9


def test_symmetric_eigen_random_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        x = rng.standard_normal((n, n)) * rng.uniform(0.1, 100)
        a = (x + x.T) / 2.0
        eig = symmetric_eigen(a)
        scale = max(np.linalg.norm(a), 1e-30)
        np.testing.assert_allclose(eig.eigenvalues,
                                   np.sort(np.linalg.eigvalsh(a))[::-1],
                                   atol=1e-8 * scale)
        residual = a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
        assert np.abs(residual).max() < 1e-8 * scale
        gram = eig.eigenvectors.T @ eig.eigenvectors
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-9)


def test_symmetric_eigen_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigen(np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.eye(2), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        symmetric_eigen(np.eye(2), tol=math.nan)
    with pytest.raises(ConvergenceError):
        symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]), max_sweeps=0)
    # refused before any sweep: neither eigenvalues nor a ConvergenceError
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigen(np.array([[1.0, math.inf], [math.inf, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigen(np.full((8, 8), math.nan))


def test_symmetric_eigen_solves_each_matrix_once_with_the_bits_of_a_solve():
    # the cache is per process, and so shared with every other test
    _jacobi.cache_clear()
    a = build_design_matrix(6)
    solved = _jacobi.__wrapped__(a.tobytes(), 6, 1e-14, 100)
    first = symmetric_eigen(a, tol=1e-14)
    again = symmetric_eigen(a.tolist(), tol=1e-14)
    assert (_jacobi.cache_info().misses, _jacobi.cache_info().hits) == (1, 1)
    for eig in (first, again):
        for got, want in ((eig.eigenvalues, solved.eigenvalues),
                          (eig.eigenvectors, solved.eigenvectors)):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 1.0
    # the tolerance and the sweep cap are part of the key
    symmetric_eigen(a, tol=1e-10)
    symmetric_eigen(a, tol=1e-14, max_sweeps=50)
    assert _jacobi.cache_info().misses == 3


def _assert_solves_equal(a, tol, max_sweeps=100):
    got = _jacobi.__wrapped__(a.tobytes(), a.shape[0], tol, max_sweeps)
    want = jacobi_rotations(a, tol, max_sweeps)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


@pytest.mark.parametrize("m", [2, 3, 6, 16, 17, 33, 64])
def test_in_place_rotations_have_the_bits_of_the_copying_oracle_on_the_design_matrix(m):
    _assert_solves_equal(build_design_matrix(m), 1e-14)


def test_in_place_rotations_have_the_bits_of_the_copying_oracle_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        x = rng.standard_normal((n, n)) * rng.uniform(0.01, 1e3)
        _assert_solves_equal((x + x.T) / 2.0, 1e-10)


def _converges(solve):
    try:
        solve()
    except ConvergenceError:
        return False
    return True


def test_in_place_rotations_stop_at_the_sweep_cap_of_the_copying_oracle():
    a = build_design_matrix(16)
    needed = next(n for n in range(1, 100) if _converges(lambda: jacobi_rotations(a, 1e-14, n)))
    assert needed > 1
    _assert_solves_equal(a, 1e-14, needed)
    for solve in (lambda: _jacobi.__wrapped__(a.tobytes(), 16, 1e-14, needed - 1),
                  lambda: jacobi_rotations(a, 1e-14, needed - 1)):
        with pytest.raises(ConvergenceError, match=f"in {needed - 1} sweeps"):
            solve()


def test_symmetric_eigen_never_caches_a_convergence_error():
    _jacobi.cache_clear()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(3):
        with pytest.raises(ConvergenceError):
            symmetric_eigen(swap, max_sweeps=0)
    assert _jacobi.cache_info().misses == 3
    assert _jacobi.cache_info().currsize == 0


def test_eigen_boundary_correlation_solves_the_design_matrix_once():
    _jacobi.cache_clear()
    s = default_scenario(k_source=GeneratedK(10405.0, "eigen", 3))
    beta_for_scenario(s, n_seeds=100)
    assert (_jacobi.cache_info().misses, _jacobi.cache_info().hits) == (1, 99)


def test_generate_k_unique_direction_for_three_elements():
    vec = generate_k(3, 6.0, "projection", seed=5)
    scaled = vec / vec[0]
    np.testing.assert_allclose(scaled, [1.0, -2.0, 1.0], atol=1e-9)
    vec = generate_k(3, 6.0, "eigen", seed=9)
    scaled = vec / vec[0]
    np.testing.assert_allclose(scaled, [1.0, -2.0, 1.0], atol=1e-6)


def test_generate_k_infeasible_and_bad_inputs():
    with pytest.raises(ValueError):
        generate_k(2, 10.0)
    with pytest.raises(ValueError):
        generate_k(8, -1.0)
    with pytest.raises(ValueError):
        generate_k(8, 10.0, method="magic")


def test_generate_k_deterministic():
    a = generate_k(16, 10405.0, "projection", seed=42)
    b = generate_k(16, 10405.0, "projection", seed=42)
    c = generate_k(16, 10405.0, "projection", seed=43)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


@pytest.mark.parametrize("method", ["projection", "eigen"])
@pytest.mark.parametrize("m", [3, 16, 32, 64])
def test_generate_k_has_the_bits_of_the_numpy_norm_scaling(m, method):
    if method == "projection":
        ones, idx = _feasible_basis(m)
        dim, direction = m, lambda g: g - (ones @ g) * ones - (idx @ g) * idx
    else:
        eig = symmetric_eigen(build_design_matrix(m), tol=1e-14)
        lam_max = eig.eigenvalues[0]
        top = eig.eigenvectors[:, eig.eigenvalues >= lam_max - 1e-6 * lam_max]
        dim, direction = top.shape[1], top.__matmul__
    for k_target in (10405.0, 7.3):
        for seed in range(200):
            v = direction(np.random.default_rng(seed).standard_normal(dim))
            want = v * np.sqrt(k_target) / np.linalg.norm(v)
            assert np.array_equal(generate_k(m, k_target, method, seed), want)


@settings(max_examples=300, deadline=None)
@given(m=st.sampled_from([3, 16, 32, 64]), seed=st.integers(0, 2 ** 63 - 1),
       scale=st.floats(1e-6, 1e6))
def test_projection_dot_has_the_bits_of_the_matmul_projection(m, seed, scale):
    # generate_k projects through the undispatched 1-D dot, not the @ operator
    ones, idx = _feasible_basis(m)
    g = np.random.default_rng(seed).standard_normal(m) * scale
    dot = g - ones.dot(g) * ones - idx.dot(g) * idx
    assert dot.tobytes() == (g - (ones @ g) * ones - (idx @ g) * idx).tobytes()


@pytest.mark.parametrize("method,sizes", [
    ("projection", (3, 4, 7, 16, 33, 64)),
    ("eigen", (3, 4, 7, 16, 33, 64)),
])
def test_generate_k_postconditions(method, sizes):
    rng = np.random.default_rng(77)
    for m in sizes:
        for _ in range(4):
            k_target = float(rng.uniform(1.0, 2e4))
            seed = int(rng.integers(0, 2 ** 32))
            vec = generate_k(m, k_target, method, seed)
            scale = math.sqrt(k_target)
            assert vec @ vec == pytest.approx(k_target, rel=1e-9)
            assert abs(vec.sum()) < 1e-9 * scale
            centered = np.arange(1, m + 1) - (m + 1) / 2.0
            assert abs(centered @ vec) < 1e-9 * scale
            assert rho1(vec) == pytest.approx(2.0 * m * k_target, rel=1e-9)
            assert abs(rho2(vec)) < 2.0 * m * 1e-9 * scale


def test_load_frequency_table_default_fixture():
    rows = load_frequency_table()
    assert [label for label, _ in rows] == ["K10405", "K12905", "K15405"]
    by_label = dict(rows)
    k1 = by_label["K10405"]
    assert len(k1) == 16
    assert k1[0] == -15.2
    assert k1[12] == 9.73
    # printed entries are rounded to ~3 significant digits
    assert k1 @ k1 == pytest.approx(10405.0, rel=0.005)
    assert k1.sum() == pytest.approx(0.03, abs=1e-9)
    k2, k3 = by_label["K12905"], by_label["K15405"]
    assert k2 @ k2 == pytest.approx(12905.0, rel=0.005)
    assert k3 @ k3 == pytest.approx(15405.0, rel=0.005)
    assert default_fixture_path().exists()


def test_load_frequency_table_errors(tmp_path):
    with pytest.raises(FixtureError):
        load_frequency_table(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FixtureError):
        load_frequency_table(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("label," + ",".join(f"m{i}" for i in range(1, 17)) + "\n")
    with pytest.raises(FixtureError):
        load_frequency_table(header_only)
    bad_header = tmp_path / "badheader.csv"
    bad_header.write_text("foo,bar\n1,2\n")
    with pytest.raises(FixtureError):
        load_frequency_table(bad_header)
    short_row = tmp_path / "short.csv"
    short_row.write_text("label," + ",".join(f"m{i}" for i in range(1, 17))
                         + "\nK10405,1,2,3\n")
    with pytest.raises(FixtureError, match="row 2"):
        load_frequency_table(short_row)
    bad_value = tmp_path / "badvalue.csv"
    bad_value.write_text("label," + ",".join(f"m{i}" for i in range(1, 17))
                         + "\nK10405," + ",".join(["1"] * 15) + ",oops\n")
    with pytest.raises(FixtureError, match="row 2"):
        load_frequency_table(bad_value)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 24), k_target=st.floats(1e-3, 1e8),
       method=st.sampled_from(["projection", "eigen"]), seed=st.integers(0, 2 ** 63 - 1))
def test_generate_k_ellipse_conditions_property(m, k_target, method, seed):
    vec = generate_k(m, k_target, method, seed)
    assert rho1(vec) == pytest.approx(2.0 * m * k_target, rel=1e-9)
    assert abs(rho2(vec)) < 2.0 * m * 1e-9 * math.sqrt(k_target)


def test_degenerate_k_draw_raises_value_error(monkeypatch, capsys):
    # with no usable eigenvector the one draw is degenerate: it is refused, never
    # redrawn, and the command line maps the ValueError to exit 2
    monkeypatch.setattr(freqdesign, "symmetric_eigen",
                        lambda a, tol: EigenResult(np.ones(len(a)), np.zeros_like(a)))
    with pytest.raises(ValueError, match="^the eigen draw of k gave a degenerate direction$"):
        generate_k(8, 100.0, "eigen", seed=0)
    assert main(["gen-k", "--m", "8", "--k-target", "100", "--method", "eigen"]) == 2
    assert capsys.readouterr() == ("", "error: the eigen draw of k gave a degenerate direction\n")


@pytest.mark.parametrize("m", [3, 8, 32])
@pytest.mark.parametrize("method", ["projection", "eigen"])
def test_generate_k_draws_once(m, method):
    # one standard-normal vector: M entries for projection, M - 2 for eigen
    rng, fresh = np.random.default_rng(7), np.random.default_rng(7)
    generate_k(m, 100.0, method, rng)
    fresh.standard_normal(m if method == "projection" else m - 2)
    assert rng.bit_generator.state == fresh.bit_generator.state
