import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralcmm.linear_model import MODE_ORDER
from chiralcmm.lyapunov import extract_block
from chiralcmm.measures import (
    PHYSICAL_SLACK,
    VIOLATION_TOL,
    InvalidCovarianceError,
    _one_vs_two,
    is_physical,
    log_negativity,
    partial_transpose,
    residual_contangle_min,
    symplectic_eigenvalues,
    teleportation_fidelity,
)
from chiralcmm.params import NumericalCondition

from helpers import (
    heisenberg_margin,
    off_design_state,
    random_physical_cm,
    random_symplectic,
    symplectic_form,
    two_mode_squeezed_cm,
)


def direct_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    return out


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert_allclose(symplectic_eigenvalues(0.5 * np.eye(6)), 0.5, rtol=1e-12)

    def test_thermal_mode(self):
        n = 3.7
        assert_allclose(symplectic_eigenvalues((n + 0.5) * np.eye(2)),
                        [n + 0.5], rtol=1e-12)

    def test_random_pure_state_is_vacuum_like(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            S = random_symplectic(rng, 3)
            V = S @ (0.5 * np.eye(6)) @ S.T
            assert_allclose(symplectic_eigenvalues(V), 0.5, rtol=1e-8)

    def test_symplectic_transform_is_symplectic(self):
        rng = np.random.default_rng(32)
        S = random_symplectic(rng, 2)
        om = symplectic_form(2)
        assert_allclose(S @ om @ S.T, om, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidCovarianceError):
            symplectic_eigenvalues(np.triu(np.ones((4, 4))))

    @pytest.mark.parametrize("V", [-np.eye(2), np.diag([1.0, -1.0]),
                                   np.diag([1.0, 1.0, 0.0, 1.0])])
    def test_rejects_not_positive_definite(self, V):
        with pytest.raises(InvalidCovarianceError):
            symplectic_eigenvalues(V)


class TestLogNegativity:
    def test_two_mode_vacuum(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_two_mode_squeezed_vacuum(self, r):
        assert log_negativity(two_mode_squeezed_cm(r)) == pytest.approx(
            2 * r, abs=1e-9)

    def test_mode_swap_symmetry(self):
        rng = np.random.default_rng(33)
        swap = np.zeros((4, 4))
        swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
        for _ in range(100):
            V = random_physical_cm(rng, 2)
            e1 = log_negativity(V)
            e2 = log_negativity(swap @ V @ swap.T)
            assert e2 == pytest.approx(e1, abs=1e-12)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            V = random_physical_cm(rng, 2)
            S = direct_sum(random_symplectic(rng, 1), random_symplectic(rng, 1))
            assert log_negativity(S @ V @ S.T) == pytest.approx(
                log_negativity(V), abs=1e-9)

    def test_matches_partial_transpose_route(self):
        # dual route: closed form vs symplectic spectrum of the transposed CM
        rng = np.random.default_rng(35)
        for _ in range(100):
            V = random_physical_cm(rng, 2)
            nu_min = symplectic_eigenvalues(partial_transpose(V, [1]))[0]
            expected = max(0.0, -math.log(2 * nu_min))
            assert log_negativity(V) == pytest.approx(expected, abs=1e-9)

    def test_thermal_admixture_never_increases(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            V = 0.8 * two_mode_squeezed_cm(rng.uniform(0.1, 1.0)) \
                + 0.2 * random_physical_cm(rng, 2)
            base = log_negativity(V)
            for eps in (1e-3, 1e-1, 1.0):
                noisy = V + np.diag([eps, eps, 0.0, 0.0])
                assert log_negativity(noisy) <= base + 1e-12

    def test_squeezed_product_states_are_not_entangled(self):
        # the discriminant Sigma^2 - 4 det V cancels to roundoff at product
        # states with nearly equal local determinants; the closed form must
        # not turn that roundoff into a nonzero E_N
        rng = np.random.default_rng(37)
        n = 3000
        V = np.zeros((n, 4, 4))
        for k in (0, 2):
            r = rng.uniform(0.0, 1.5, n)
            theta = rng.uniform(0.0, np.pi, n)
            c, s = np.cos(theta), np.sin(theta)
            R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
            squeeze = np.zeros((n, 2, 2))
            squeeze[:, 0, 0], squeeze[:, 1, 1] = np.exp(2 * r), np.exp(-2 * r)
            V[:, k:k + 2, k:k + 2] = 0.5 * R @ squeeze @ R.swapaxes(-2, -1)
        assert np.max(log_negativity(V)) <= 1e-13

    def test_strongly_squeezed_products_are_exactly_unentangled(self):
        # a squeezed vacuum (r up to 4.5) beside a squeezed vacuum or a hot
        # thermal mode (n up to 2 000): eta_minus is 1/2 up to a roundoff
        # that scales with ||V||_F, which a clip at 1/2 - CLIP_TOL/2 read as
        # E_N up to about 2e-9 in about one product of four
        rng = np.random.default_rng(5)

        def rotated_squeezed(r):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            R = np.array([[math.cos(phi), math.sin(phi)],
                          [-math.sin(phi), math.cos(phi)]])
            return R @ np.diag([0.5 * math.exp(-2 * r),
                                0.5 * math.exp(2 * r)]) @ R.T

        stack = []
        for _ in range(2000):
            other = (rotated_squeezed(rng.uniform(0.0, 4.5))
                     if rng.random() < 0.5
                     else (rng.uniform(0.0, 2000.0) + 0.5) * np.eye(2))
            stack.append(direct_sum(rotated_squeezed(rng.uniform(0.0, 4.5)),
                                    other))
        assert np.all(log_negativity(np.stack(stack)) == 0.0)

    def test_weak_entanglement_is_kept(self):
        # ||V4||_F of a two-mode squeezed vacuum at r = 1e-6 is 1, so the
        # clip sits 1e-12 below 1/2, far above eta_minus = e^{-2r}/2
        for r in (1e-6, 1e-4):
            assert log_negativity(two_mode_squeezed_cm(r)) == pytest.approx(
                2 * r, rel=1e-6)

    @pytest.mark.parametrize("a", [250.0, 930.0, 1000.0])
    @pytest.mark.parametrize("gap", [0.4999, 0.4995, 0.499, 0.45])
    def test_hot_two_mode_squeezed_state_near_the_edge(self, a, gap):
        # a two-mode squeezed thermal state [[a I, -s Z], [-s Z, a I]] with
        # (n + 1/2) = (a^2 - s^2)^{1/2} near 30 and e^{2r} near 2n + 1: eta_minus
        # = a - s is close to 1/2 and V is large, where Sigma minus its root
        # cancels.  a - s is exact in floating point (Sterbenz), so the
        # reference is that of the matrix as stored.
        s = a - gap
        Z = np.diag([1.0, -1.0])
        V = np.block([[a * np.eye(2), -s * Z], [-s * Z, a * np.eye(2)]])
        assert log_negativity(V) == pytest.approx(-math.log(2 * (a - s)),
                                                  rel=0, abs=1e-13)

    def test_uncoupled_pairs_of_chiral_points_are_exactly_zero(self):
        # along fig3a (J = g_ccw = 0) a_ccw couples to nothing, so (a_ccw, b)
        # and (a_ccw, m) are product states; the roundoff of det V4 about
        # 2 eta_minus = 1 must not read as a few 1e-16 of E_N (it did in
        # row 1 of the fig3a sweep)
        from chiralcmm import presets
        from chiralcmm.linear_model import build_model
        from chiralcmm.lyapunov import solve_lyapunov
        from chiralcmm.pipeline import SWEEPABLE
        from chiralcmm.steady_state import resolve_drive

        pre = presets.get("fig3a")
        assert pre.params.J == pre.params.g_ccw == 0.0
        axis = pre.sweep.axes[0]
        p, det = SWEEPABLE[axis.name](pre.params.stacked(axis.num),
                                      pre.detunings.stacked(axis.num),
                                      axis.values())
        model = build_model(p, det, resolve_drive(p, det).g_m_eff)
        V = solve_lyapunov(model.A, model.D)
        for pair in (("a_ccw", "b"), ("a_ccw", "m")):
            assert np.all(log_negativity(extract_block(V, pair)) == 0.0)

    def test_invalid_cm_rejected(self):
        V = np.diag([1.0, 1.0, 1e-12, 1e-12])  # violates Heisenberg badly
        with pytest.raises(InvalidCovarianceError):
            log_negativity(-V)


def one_vs_two(V, single):
    """Log negativity across the 1|2 split with ``single`` alone, as the
    residual contangle computes it."""
    return float(_one_vs_two(V, single))


def beam_splitter(j, k, angle):
    """Symplectic 6 x 6 matrix mixing modes j and k of three by ``angle``."""
    B = np.eye(6)
    for q in range(2):
        B[2 * j + q, 2 * j + q] = B[2 * k + q, 2 * k + q] = math.cos(angle)
        B[2 * j + q, 2 * k + q] = math.sin(angle)
        B[2 * k + q, 2 * j + q] = -math.sin(angle)
    return B


def on_mode(k, M):
    """Symplectic 6 x 6 matrix acting as the 2 x 2 ``M`` on mode k of three."""
    S = np.eye(6)
    S[2 * k:2 * k + 2, 2 * k:2 * k + 2] = M
    return S


@st.composite
def squeezed_three_mode_states(draw):
    """A stack of three-mode states: 24 strongly squeezed, pure or nearly
    pure states nu U Z^2 U^T (Bloch-Messiah: squeezers Z = diag(e^-r_k,
    e^r_k) with |r_k| up to ``r_max`` <= 4.5, then a passive U of six random
    beam splitters and phase rotations), so cond(V) <= e^18 < 1e8 and ||V||
    reaches about 4e3; and 8 random_physical_cm thermal states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r_max = draw(st.floats(2.0, 4.5))
    nu = 0.5 + draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-3]))  # pure: 1 in 2
    stack = []
    for _ in range(24):
        U = np.eye(6)
        for _ in range(6):
            j, k = rng.choice(3, size=2, replace=False)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rotation = [[math.cos(phi), math.sin(phi)],
                        [-math.sin(phi), math.cos(phi)]]
            U = (on_mode(rng.integers(3), np.array(rotation))
                 @ beam_splitter(j, k, rng.uniform(0.0, math.pi)) @ U)
        z = np.exp(np.repeat(rng.uniform(-r_max, r_max, size=3), 2)
                   * np.tile([-1.0, 1.0], 3))
        stack.append(nu * (U * z) @ (U * z).T)
    stack += [random_physical_cm(rng, 3) for _ in range(8)]
    return np.stack(stack)


class TestOneVsTwo:
    @settings(max_examples=40)
    @given(squeezed_three_mode_states())
    def test_at_most_one_symplectic_eigenvalue_below_half(self, V):
        # for a 1 x N split of a Gaussian state, the partial transpose has at
        # most one symplectic eigenvalue below 1/2, so the 1|2 contangle reads
        # nu_1 alone.  The second eigenvalue of a pure state is exactly 1/2,
        # and roundoff moves it by up to about 1400 eps ||V||_F: the
        # tolerance scales with ||V||, as an absolute 1e-12 would not hold
        floor = 0.5 - 1e-12 * np.linalg.norm(V, axis=(-2, -1))
        for single in range(3):
            nu = symplectic_eigenvalues(partial_transpose(V, [single]))
            assert np.all(nu[:, 1] >= floor)

    def test_product_vacuum(self):
        V = 0.5 * np.eye(6)
        for single in range(3):
            assert one_vs_two(V, single) == 0.0

    def test_squeezed_product_is_exactly_unentangled(self):
        # a squeezed vacuum on mode 0 times a two-mode squeezed vacuum on
        # modes 1 and 2: the 0|12 split is a product, and its nu_1 is 1/2
        # up to a roundoff that scales with ||V||_F, which an absolute
        # clip read as entanglement of up to a few 1e-9
        rng = np.random.default_rng(31)
        stack = []
        for _ in range(300):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            R = np.array([[math.cos(phi), math.sin(phi)],
                          [-math.sin(phi), math.cos(phi)]])
            r = rng.uniform(2.0, 4.5)
            single = R @ np.diag([0.5 * math.exp(-2 * r),
                                  0.5 * math.exp(2 * r)]) @ R.T
            stack.append(direct_sum(single,
                                    two_mode_squeezed_cm(rng.uniform(1, 4))))
        assert np.all(_one_vs_two(np.stack(stack), 0) == 0.0)

    def test_weak_entanglement_beside_a_squeezed_mode(self):
        # ||V||_F is about 1.5e3, so the clip sits 1.5e-9 below 1/2, far
        # above nu_1 = e^{-2r}/2 of a two-mode squeezed pair at r = 1e-6
        r = 1e-6
        squeezed = np.diag([0.5 * math.exp(-8.0), 0.5 * math.exp(8.0)])
        V = direct_sum(two_mode_squeezed_cm(r), squeezed)
        assert one_vs_two(V, 0) == pytest.approx(2 * r, rel=1e-6)
        assert one_vs_two(V, 2) == 0.0

    def test_tmsv_with_spectator_vacuum(self):
        for r in (0.2, 0.7):
            V = direct_sum(two_mode_squeezed_cm(r), 0.5 * np.eye(2))
            assert one_vs_two(V, 0) == pytest.approx(2 * r, abs=1e-9)
            assert one_vs_two(V, 2) == pytest.approx(0.0, abs=1e-9)


class TestResidualContangle:
    def test_product_thermal_states(self):
        V = direct_sum(*[(n + 0.5) * np.eye(2) for n in (0.0, 1.3, 4.2)])
        rep = residual_contangle_min(V)
        assert rep.r_min == 0.0
        assert np.array_equal(rep.residuals, np.zeros(3))

    def test_monogamy_of_tmsv_plus_vacuum(self):
        V = direct_sum(two_mode_squeezed_cm(0.6), 0.5 * np.eye(2))
        rep = residual_contangle_min(V)
        # focus on mode 0: C_{0|12} = C_{0|1}, so the residual vanishes
        assert rep.residuals[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.r_min >= 0.0

    def test_small_violations_reported_and_floored(self):
        # the negativity-squared contangle is not a convex-roof measure, so
        # weakly entangled mixed states can break the monogamy inequality
        # slightly; such cases must surface as negative residuals with
        # r_min = 0 rather than as a negative measure.  This state comes from
        # an off-design warm, weakly driven configuration of the full
        # pipeline.
        from chiralcmm.linear_model import build_model
        from chiralcmm.lyapunov import solve_lyapunov
        from chiralcmm.steady_state import resolve_drive

        p, det = off_design_state()
        sf = resolve_drive(p, det)
        model = build_model(p, det, sf.g_m_eff)
        assert model.stable
        V = solve_lyapunov(model.A, model.D)
        rep = residual_contangle_min(extract_block(V, ("a_ccw", "m", "b")))
        assert np.sum(rep.residuals < -VIOLATION_TOL) == 1
        assert -1e-4 < np.min(rep.residuals) < -1e-9
        assert rep.r_min == 0.0


class TestSingleMatchesStack:
    def test_single_matrix_gives_the_bits_of_its_row(self):
        # a matrix alone and as a row of a stack give the same bits
        rng = np.random.default_rng(2025)
        V = np.array([random_physical_cm(rng, 4) for _ in range(50)])
        pairs = [("a_cw", "m"), ("a_ccw", "b"), ("m", "a_cw")]
        triples = [("a_cw", "m", "b"), ("a_ccw", "m", "b"), MODE_ORDER[:3]]
        physical = is_physical(V)
        stacked = {modes: extract_block(V, modes) for modes in pairs + triples}
        e_n = {pair: log_negativity(stacked[pair]) for pair in pairs}
        fidelity = {pair: teleportation_fidelity(stacked[pair])
                    for pair in pairs}
        reports = {tri: residual_contangle_min(stacked[tri]) for tri in triples}
        for k in range(len(V)):
            assert is_physical(V[k]) == physical[k]
            for modes, blocks in stacked.items():
                assert np.array_equal(extract_block(V[k], modes), blocks[k])
            for pair in pairs:
                single = log_negativity(extract_block(V[k], pair))
                assert single == e_n[pair][k]
                single = teleportation_fidelity(extract_block(V[k], pair))
                assert type(single) is float
                assert single == fidelity[pair][k]
            for tri, report in reports.items():
                single = residual_contangle_min(extract_block(V[k], tri))
                assert single.r_min.shape == ()
                assert single.residuals.shape == (3,)
                assert np.array_equal(single.r_min, report.r_min[k])
                assert np.array_equal(single.residuals, report.residuals[k])


class TestTeleportationFidelity:
    def test_classical_boundary(self):
        V = 0.5 * np.eye(4)
        assert teleportation_fidelity(V) == pytest.approx(0.5, abs=1e-12)

    def test_ideal_epr_limit(self):
        assert teleportation_fidelity(two_mode_squeezed_cm(10.0)) \
            == pytest.approx(1.0, abs=1e-8)

    def test_fidelity_grows_with_squeezing(self):
        values = [teleportation_fidelity(two_mode_squeezed_cm(r))
                  for r in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert values[0] == pytest.approx(0.5, abs=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0 < f <= 1 for f in values)

    def test_symmetric_thermal_squeezed_closed_form(self):
        # F = 1/(1 + 2*eta_minus) for a symmetric two-mode squeezed thermal
        # state aligned with the measured combination
        for r, n in ((0.4, 0.1), (0.8, 0.3)):
            V = two_mode_squeezed_cm(r, n_th=n)
            eta = math.exp(-log_negativity(V)) / 2
            assert teleportation_fidelity(V) == pytest.approx(
                1.0 / (1.0 + 2.0 * eta), rel=1e-9)

    def test_invalid_input_rejected(self):
        # -I/2 cancels the coherent input: the output CM has det 0
        with pytest.raises(InvalidCovarianceError, match="det"):
            teleportation_fidelity(-0.5 * np.eye(4))
        with pytest.raises(InvalidCovarianceError, match="det"):
            teleportation_fidelity(np.stack([0.5 * np.eye(4),
                                             -0.5 * np.eye(4)]))
        # a wrong shape is a programming error, not a numerical condition
        with pytest.raises(ValueError, match="4x4") as exc:
            teleportation_fidelity(0.5 * np.eye(6))
        assert not isinstance(exc.value, NumericalCondition)


@st.composite
def scaled_states(draw):
    """A stack of 2-8 two-mode covariance matrices scaled across the
    Heisenberg bound: each a two-mode squeezed thermal state or a
    random_physical_cm state, scaled so that its smallest symplectic
    eigenvalue is (1 + delta)/2, with |delta| from 1e-10 to 1e-2 and either
    sign."""
    stack = []
    for _ in range(draw(st.integers(2, 8))):
        if draw(st.booleans()):
            n_th = draw(st.floats(0.0, 2.0))
            V = two_mode_squeezed_cm(draw(st.floats(0.0, 3.0)), n_th)
            nu = n_th + 0.5
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            V = random_physical_cm(rng, 2)
            nu = symplectic_eigenvalues(V)[0]
        delta = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(
            st.floats(-10.0, -2.0))
        stack.append(V * (0.5 * (1.0 + delta) / nu))
    return np.stack(stack)


class TestPhysicality:
    def test_vacuum_is_physical(self):
        assert is_physical(0.5 * np.eye(8))

    def test_below_heisenberg_is_not(self):
        assert not is_physical(0.4 * np.eye(4))

    @pytest.mark.parametrize("V", [-np.eye(2), np.diag([1.0, -1.0]),
                                   np.diag([10.0, 10.0, 10.0, -0.1])])
    def test_indefinite_or_negative_is_not(self, V):
        assert not is_physical(V)

    def test_slack(self):
        # a thermal mode nu * I passes down to nu = 1/2 - PHYSICAL_SLACK
        assert is_physical((0.5 - 0.5 * PHYSICAL_SLACK) * np.eye(2))
        assert not is_physical((0.5 - 2.0 * PHYSICAL_SLACK) * np.eye(2))

    def test_squeezed_pure_state_is(self):
        # at r = 7 the smallest eigenvalue of V + i Omega/2 is about -6e-11,
        # roundoff of ||V|| = 8.5e5
        assert is_physical(two_mode_squeezed_cm(7.0))
        assert list(is_physical(np.stack([two_mode_squeezed_cm(7.0),
                                          -np.eye(4)]))) == [True, False]

    @settings(max_examples=60)
    @given(scaled_states())
    def test_verdict_is_the_eigenvalue_rule(self, V):
        # points within 1e-12 ||V|| of the threshold are roundoff's to decide
        margin = heisenberg_margin(V)
        decided = np.abs(margin) > 1e-12 * np.linalg.norm(V, axis=(-2, -1))
        expected = margin[decided] >= 0.0
        assume(np.any(expected) and not np.all(expected))
        verdict = is_physical(V)
        assert list(verdict[decided]) == list(expected)
        assert list(verdict) == [is_physical(v) for v in V]

    def test_non_finite_point_is_not_physical(self):
        # without a floating-point warning, which the suite makes an error
        vacuum = 0.5 * np.eye(8)
        nan, inf = vacuum.copy(), vacuum.copy()
        nan[0, 1] = np.nan
        inf[3, 3] = np.inf
        assert not is_physical(inf)
        assert list(is_physical(np.stack([nan, vacuum, inf]))) == [
            False, True, False]


class TestNonFiniteCovariance:
    # refused as invalid covariances, without a floating-point warning,
    # which the suite makes an error
    @pytest.mark.parametrize("measure, size", [
        (symplectic_eigenvalues, 4), (log_negativity, 4),
        (teleportation_fidelity, 4), (residual_contangle_min, 6)],
        ids=lambda x: getattr(x, "__name__", str(x)))
    @pytest.mark.parametrize("entry, value", [((0, 0), np.nan),
                                              ((0, 1), np.inf)],
                             ids=["nan-diagonal", "inf-off-diagonal"])
    def test_refused(self, measure, size, entry, value):
        V = 0.5 * np.eye(size)
        V[entry] = value
        with pytest.raises(InvalidCovarianceError, match="must be finite"):
            measure(V)
