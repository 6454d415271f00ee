import math

import numpy as np
import pytest

from rfda_secrecy.arraymodel import ArrayConfig, Location, steering_vector
from rfda_secrecy.dmsecurity import (PowerConfig, an_leakage, an_vector, c_an_lb, capacity_bob,
                                     capacity_eve_an, complex_from_parts, complex_gaussian,
                                     dbm_to_mw, eta, secrecy_capacity, sinr_eve)
from rfda_secrecy.errors import RetryRequiredError
from rfda_secrecy.reference import (an_vector_pointwise, c_lb, random_qpsk,
                                    receive_signal, transmit_signal)


def random_unit_complex(rng, m):
    v = complex_gaussian(rng, m)
    return v / np.linalg.norm(v)


def projected_an_batch(h, z_batch):
    "Vectorized oracle: project each row of z off h and normalize."
    proj = z_batch - np.outer(z_batch @ np.conj(h), h)
    return proj / np.linalg.norm(proj, axis=1, keepdims=True)


def test_dbm_to_mw():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert dbm_to_mw(-10.0) == pytest.approx(0.1, rel=1e-12)


def test_power_config_derived_ratios():
    pw = PowerConfig(30.0, 0.0, 0.0, 0.6)
    assert pw.mu == pytest.approx(1000.0, rel=1e-12)
    assert pw.eps == pytest.approx(1.0, rel=1e-12)
    pw = PowerConfig(20.0, -3.0, 3.0, 1.0)
    assert pw.mu == pytest.approx(dbm_to_mw(23.0), rel=1e-12)
    assert pw.eps == pytest.approx(dbm_to_mw(6.0), rel=1e-12)


@pytest.mark.parametrize("delta", [-0.1, 1.1])
def test_power_config_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        PowerConfig(30.0, delta=delta)


def test_complex_gaussian_draws_the_real_parts_then_the_imaginary_parts():
    for m in (1, 3, 16):
        got, want = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(50):
            expected = (want.standard_normal(m) + 1j * want.standard_normal(m)) / math.sqrt(2.0)
            assert np.array_equal(complex_gaussian(got, m), expected)


def test_complex_from_parts_gives_a_stacked_row_the_bits_of_the_row_alone():
    # a stack converts each row as that row alone, signed zeros and non-finite parts too
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -2.5])
    parts = np.array([[special, special[::-1]], [special[::-1], special], [-special, special]])
    with np.errstate(invalid="ignore"):
        stacked = complex_from_parts(parts)
        for j in range(len(parts)):
            assert stacked[j].tobytes() == complex_from_parts(parts[j]).tobytes()


def test_an_vector_orthogonality_and_norm():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 33))
        h = random_unit_complex(rng, m)
        w = an_vector(h, complex_gaussian(rng, m))
        assert abs(np.vdot(h, w)) <= 1e-10
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def test_an_vector_degenerate_inputs():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        an_vector(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    h = random_unit_complex(rng, 6)
    with pytest.raises(RetryRequiredError):
        an_vector(h, 3.7 * h)
    with pytest.raises(ValueError):
        an_vector(h, complex_gaussian(rng, 5))


def test_stacked_an_rows_have_the_bits_of_the_pointwise_path():
    rng = np.random.default_rng(12)
    for m in (2, 7, 16, 32):
        h = np.array([random_unit_complex(rng, m) for _ in range(40)])
        h_eve = np.array([random_unit_complex(rng, m) for _ in range(40)])
        z = np.array([complex_gaussian(rng, m) for _ in range(40)])
        w, an2 = an_vector(h, z), an_leakage(h_eve, an_vector(h, z))
        for i in range(40):
            one = an_vector_pointwise(h[i], z[i])
            assert np.array_equal(w[i], one)
            assert np.array_equal(an_vector(h[i], z[i]), one)
            assert an2[i] == float(np.abs(np.vdot(h_eve[i], one)) ** 2)
        # the error names every row whose draw is parallel to its channel
        z[[3, 17]] = (0.6 - 0.8j) * h[[3, 17]]
        with pytest.raises(RetryRequiredError) as info:
            an_vector(h, z)
        assert info.value.rows == (3, 17)


def test_an_leakage_squares_each_overlap_as_the_pointwise_path():
    # overlaps of known size: libm pow squares them as it squares one scalar
    # overlap, where x * x differs in the last bit for about 1 in 1,000
    size = np.random.default_rng(13).random(5000)
    h_eve = np.stack([size, np.zeros_like(size)], axis=-1).astype(complex)
    w = np.broadcast_to(np.array([1.0, 0.0], dtype=complex), h_eve.shape)
    got = an_leakage(h_eve, w)
    assert all(got[i] == float(np.abs(np.vdot(h_eve[i], w[i])) ** 2) for i in range(size.size))


def test_transmit_signal_limits():
    rng = np.random.default_rng(5)
    v = random_unit_complex(rng, 8)
    w = an_vector(v, complex_gaussian(rng, 8))
    full_signal = PowerConfig(20.0, delta=1.0)
    s = 0.6 - 0.8j
    np.testing.assert_allclose(transmit_signal(v, w, s, full_signal),
                               math.sqrt(100.0) * v * s, atol=1e-12)
    np.testing.assert_allclose(transmit_signal(v, w, 0.0, full_signal),
                               np.zeros(8), atol=1e-12)


def test_transmit_signal_power_split():
    rng = np.random.default_rng(6)
    pw = PowerConfig(17.0, delta=0.37)
    for _ in range(50):
        v = random_unit_complex(rng, 12)
        w = an_vector(v, complex_gaussian(rng, 12))
        s = random_qpsk(rng, 1)[0]
        x = transmit_signal(v, w, s, pw)
        expected = pw.delta * pw.pt_mw * abs(s) ** 2 + (1 - pw.delta) * pw.pt_mw
        assert np.linalg.norm(x) ** 2 == pytest.approx(expected, rel=1e-12)


def test_receive_signal_an_invisible_at_intended_receiver():
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    rng = np.random.default_rng(7)
    k = rng.standard_normal(16) * 20
    h_bob = steering_vector(cfg, k, bob)
    pw = PowerConfig(30.0, delta=0.6)
    for _ in range(100):
        w = an_vector(h_bob, complex_gaussian(rng, 16))
        s = random_qpsk(rng, 1)[0]
        x = transmit_signal(h_bob, w, s, pw)
        y = receive_signal(h_bob, x)
        assert abs(y - math.sqrt(pw.delta * pw.pt_mw) * s) <= 1e-10 * abs(y)


def test_receive_signal_zero_input_and_eve_decomposition():
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(108.0, math.radians(40))
    rng = np.random.default_rng(8)
    k = rng.standard_normal(8) * 10
    h_bob = steering_vector(cfg, k, bob)
    h_eve = steering_vector(cfg, k, eve)
    noise = 0.3 - 0.1j
    assert receive_signal(h_eve, np.zeros(8), noise) == pytest.approx(noise)
    pw = PowerConfig(25.0, delta=0.7)
    w = an_vector(h_bob, complex_gaussian(rng, 8))
    s = random_qpsk(rng, 1)[0]
    x = transmit_signal(h_bob, w, s, pw)
    got = receive_signal(h_eve, x, noise)
    expected = (math.sqrt(pw.delta * pw.pt_mw) * np.vdot(h_eve, h_bob) * s
                + math.sqrt((1 - pw.delta) * pw.pt_mw) * np.vdot(h_eve, w) + noise)
    assert got == pytest.approx(expected, rel=1e-12)


def test_bob_snr_examples():
    # the SNR at the intended receiver is delta * mu, as AN cancels there
    def snr(power):
        return 2.0 ** capacity_bob(power) - 1.0
    assert snr(PowerConfig(30.0, delta=0.6)) == pytest.approx(600.0, rel=1e-12)
    assert snr(PowerConfig(30.0, delta=0.0)) == 0.0
    assert snr(PowerConfig(0.0, delta=1.0)) == pytest.approx(1.0, rel=1e-12)


def test_sinr_eve_examples():
    pw = PowerConfig(30.0, delta=0.6)
    assert sinr_eve(pw, 1.0, 0.0) == pytest.approx(600.0, rel=1e-12)
    assert sinr_eve(pw, 0.0, 0.2) == 0.0
    assert sinr_eve(pw, 0.4, 0.04) == pytest.approx(240.0 / 17.0, rel=1e-12)


def test_eta_values_and_trace_oracle():
    assert eta(16) == pytest.approx(1.0 / 15.0, rel=1e-12)
    assert eta(2) == 1.0
    with pytest.raises(ValueError):
        eta(1)
    rng = np.random.default_rng(9)
    for m in (2, 5, 8, 16):
        h = random_unit_complex(rng, m)
        projector = np.eye(m) - np.outer(h, np.conj(h))
        trace = np.trace(projector @ projector).real
        assert trace == pytest.approx(m - 1, abs=1e-10)
        assert eta(m) == pytest.approx(1.0 / trace, rel=1e-10)


def test_capacity_examples():
    assert capacity_bob(PowerConfig(0.0, delta=1.0)) == pytest.approx(1.0, rel=1e-12)
    assert capacity_bob(PowerConfig(30.0, delta=0.0)) == 0.0
    assert capacity_bob(PowerConfig(30.0, delta=0.6)) == pytest.approx(
        math.log2(601.0), rel=1e-12)
    pw = PowerConfig(30.0, delta=0.6)
    assert capacity_eve_an(pw, 0.0, 0.5) == 0.0
    assert capacity_eve_an(pw, 0.4, 0.04) == pytest.approx(
        math.log2(1.0 + 240.0 / 17.0), rel=1e-12)
    # an eavesdropper sitting on the intended receiver sees its capacity
    pw1 = PowerConfig(30.0, delta=1.0)
    assert capacity_eve_an(pw1, 1.0, 0.0) == pytest.approx(capacity_bob(pw1),
                                                           rel=1e-12)


def test_secrecy_capacity_clamps():
    assert secrecy_capacity(2.0, 2.0) == 0.0
    assert secrecy_capacity(1.0, 2.0) == 0.0
    assert secrecy_capacity(9.2312, 3.918) == pytest.approx(5.3132, abs=1e-4)


def test_c_an_lb_values():
    pw = PowerConfig(30.0, delta=0.6)
    assert c_an_lb(pw, 0.0, 1.0 / 15.0) == pytest.approx(capacity_bob(pw), rel=1e-12)
    assert c_an_lb(pw, 0.4, 1.0 / 15.0) == pytest.approx(5.313059472767647, rel=1e-12)
    pw1 = PowerConfig(30.0, delta=1.0)
    for beta in (0.0, 0.2, 0.7):
        assert c_an_lb(pw1, beta, 0.25) == pytest.approx(c_lb(pw1, beta), rel=1e-12)


def test_c_lb_values():
    pw = PowerConfig(30.0, delta=1.0)
    assert c_lb(pw, 0.0) == pytest.approx(math.log2(1001.0), rel=1e-12)
    assert c_lb(pw, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert c_lb(pw, 0.4) == pytest.approx(1.3197678323810733, rel=1e-12)


def test_lower_bounds_monotone_and_capped():
    betas = np.linspace(0.0, 1.0, 41)
    for pt in (0.0, 10.0, 30.0):
        for delta in (0.3, 0.6, 0.95):
            pw = PowerConfig(pt, delta=delta)
            an_values = [c_an_lb(pw, b, 1.0 / 15.0) for b in betas]
            assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(an_values, an_values[1:]))
            assert all(v <= capacity_bob(pw) + 1e-12 for v in an_values)
        pw1 = PowerConfig(pt, delta=1.0)
        no_an = [c_lb(pw1, b) for b in betas]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(no_an, no_an[1:]))
        assert all(v <= math.log2(1.0 + pw1.mu) + 1e-12 for v in no_an)


def test_an_isotropy_matches_eta():
    # over many AN draws, E|h_e^H w|^2 = eta * (1 - |h_e^H h_b|^2)
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(108.0, math.radians(40))
    rng = np.random.default_rng(10)
    k = rng.standard_normal(16) * 25
    h_bob = steering_vector(cfg, k, bob)
    h_eve = steering_vector(cfg, k, eve)
    n = 10000
    z = (rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))) / math.sqrt(2)
    w = projected_an_batch(h_bob, z)
    an2 = np.abs(w @ np.conj(h_eve)) ** 2
    corr2 = abs(np.vdot(h_eve, h_bob)) ** 2
    expected = eta(16) * (1.0 - corr2)
    stderr = an2.std(ddof=1) / math.sqrt(n)
    assert abs(an2.mean() - expected) <= 4.0 * stderr


def test_empirical_snr_matches_delta_mu():
    # signal-level simulation: QPSK symbols, AN draws and 1e5 noise draws
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    rng = np.random.default_rng(11)
    k = rng.standard_normal(8) * 15
    h_bob = steering_vector(cfg, k, bob)
    pw = PowerConfig(10.0, sigma_b2_dbm=0.0, delta=0.6)
    n = 100000
    symbols = random_qpsk(rng, n)
    noise = complex_gaussian(rng, n) * math.sqrt(dbm_to_mw(pw.sigma_b2_dbm))
    # AN cancels at the intended receiver, so the clean sample is sqrt(d Pt) s
    w = an_vector(h_bob, complex_gaussian(rng, 8))
    clean = np.array([receive_signal(h_bob, transmit_signal(h_bob, w, s, pw))
                      for s in symbols[:64]])
    signal_power = float(np.mean(np.abs(clean) ** 2))
    noise_power = float(np.mean(np.abs(noise) ** 2))
    empirical = signal_power / noise_power
    assert empirical == pytest.approx(pw.delta * pw.mu, rel=0.03)
