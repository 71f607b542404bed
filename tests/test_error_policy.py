"""Every exception class of the package falls under the error policy: an
input error is a ``cli.ConfigError``, a known numerical condition a
``params.NumericalCondition``; anything else is a bug, and a wrong-shaped
stack handed to a measure or to the Lyapunov solver is one.  A condition
raised on a stack of points names the points that fail, each with the
message it raises alone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import chiralcmm
from chiralcmm import lyapunov, output_mode, presets
from chiralcmm.cli import ConfigError
from chiralcmm.constants import hz
from chiralcmm.linear_model import build_model, is_stable
from chiralcmm.lyapunov import solve_lyapunov
from chiralcmm.measures import (
    is_physical,
    log_negativity,
    residual_contangle_min,
    symplectic_eigenvalues,
    teleportation_fidelity,
)
from chiralcmm.output_mode import filtered_pair_cm, modal_resolvent
from chiralcmm.params import Detunings, DriveSpec, NumericalCondition
from chiralcmm.steady_state import (
    _cavity_means,
    _denominator,
    amplitude_for_gm,
    resolve_drive,
)

from helpers import failing_gk21

MODULES = sorted(f"chiralcmm.{info.name}"
                 for info in pkgutil.iter_modules(chiralcmm.__path__))


def exception_classes(name):
    """The exception classes that the module ``name`` defines."""
    module = importlib.import_module(name)
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == name and issubclass(cls, Exception)]


@pytest.mark.parametrize("name", MODULES)
def test_exception_classes_follow_the_policy(name):
    for cls in exception_classes(name):
        assert cls is ConfigError or issubclass(cls, NumericalCondition), cls


def test_the_scan_finds_the_known_classes():
    found = {cls.__name__ for name in MODULES
             for cls in exception_classes(name)}
    assert found >= {"ConfigError", "SingularConfigurationError",
                     "MeanFieldOverflowError", "UnstableSystemError",
                     "LyapunovError", "InvalidCovarianceError",
                     "QuadratureError", "IntegrationError",
                     "InconclusiveError"}


# one stack of two matrices of the wrong size for each function
WRONG_SHAPES = {
    "log_negativity": lambda: log_negativity(np.stack([np.eye(6)] * 2)),
    "residual_contangle_min": lambda: residual_contangle_min(
        np.stack([np.eye(4)] * 2)),
    "teleportation_fidelity": lambda: teleportation_fidelity(
        np.stack([np.eye(6)] * 2)),
    "symplectic_eigenvalues": lambda: symplectic_eigenvalues(
        np.stack([np.eye(3)] * 2)),
    "is_physical": lambda: is_physical(np.ones((2, 4, 6))),
    "solve_lyapunov": lambda: solve_lyapunov(-np.stack([np.eye(8)] * 2),
                                             np.stack([np.eye(6)] * 2)),
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_a_wrong_shape_is_a_programming_error(name):
    with pytest.raises(ValueError) as exc:
        WRONG_SHAPES[name]()
    assert not isinstance(exc.value, NumericalCondition)


# ---------------------------------------------------------------------------
# a condition names the failing points of its stack

#: functions that raise a NumericalCondition without params.require, and
#: why: each judges one configuration, not a stack of points
UNNAMED_RAISES = {
    ("linear_model", "max_stable_coupling"):
        "the |G_m| scan of one configuration, unstable at |G_m| = 0",
    ("time_domain", "integrate_classical"):
        "one ODE run of one configuration",
    ("time_domain", "classify_attractor"): "one trajectory",
}


def _raises_without_points(node, conditions, where="<module>"):
    """The innermost function (or "<module>") of each ``raise
    <condition class>(...)`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises_without_points(child, conditions, child.name)
            continue
        if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
            func = child.exc.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in conditions:
                yield where
        yield from _raises_without_points(child, conditions, where)


def test_every_condition_names_its_points():
    # a raise of a condition class fails here unless it goes through
    # params.require, which names the failing points of a stack, or
    # UNNAMED_RAISES says why it has no stack
    conditions = {cls.__name__ for name in MODULES
                  for cls in exception_classes(name)
                  if issubclass(cls, NumericalCondition)}
    found = set()
    for path in Path(chiralcmm.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.stem, where)
                  for where in _raises_without_points(tree, conditions)}
    assert found == set(UNNAMED_RAISES)


def _points_of(params, det, **fields):
    """A function from point indices to the (params, detunings) of those
    points of a stack of three copies of ``params``/``det``, with each
    keyword field set to its three values."""
    P, dets = params.stacked(3).replace(**fields), det.stacked(3)
    return lambda idx: (P.at(idx), Detunings(*(value[idx] for value in (
        dets.delta_a, dets.delta_m, dets.delta_m_eff))))


def _with_middle(normal, failing):
    """A (3, ...) stack: ``normal``, ``failing``, ``normal``."""
    return np.stack([normal, failing, normal])


def _fig3a():
    pre = presets.get("fig3a")
    return pre.params, pre.detunings


def _overflow(idx, monkeypatch):
    p, det = _fig3a()
    at = _points_of(p.replace(g_m=hz(1.0)), det, drive=DriveSpec(
        "amplitude", np.array([1e6, 1e307, 1e6])))
    return resolve_drive(*at(idx))


def _singular_cavity(idx, monkeypatch):
    # kappa_a = 0 and delta_a = J: (kappa_a + i delta_a)^2 + J^2 = 0
    p, det = _fig3a()
    J = hz(1e6)
    at = _points_of(p, Detunings(J, det.delta_m, det.delta_m_eff),
                    J=np.full(3, J), kappa_a_i=np.array([1e6, 0.0, 1e6]),
                    kappa_a_e=np.array([1e6, 0.0, 1e6]))
    return _cavity_means(*at(idx), 1.0, 1.0)


def _vanishing_denominator(idx, monkeypatch):
    p, det = _fig3a()
    zero_at_1 = np.array([1e6, 0.0, 1e6])
    at = _points_of(p, Detunings(0.0, det.delta_m, det.delta_m_eff),
                    kappa_a_i=zero_at_1, kappa_a_e=zero_at_1,
                    kappa_m=zero_at_1, g_cw=zero_at_1)
    return _denominator(*at(idx))


def _unpumped_magnon(idx, monkeypatch):
    p, det = _fig3a()
    at = _points_of(p, det, g_cw=np.array([hz(4e6), 0.0, hz(4e6)]))
    return amplitude_for_gm(*at(idx), hz(4e6))


def _eigvals_failing_at_marked(a, eigvals=np.linalg.eigvals):
    """numpy's eigvals, which fails a stack that holds a matrix whose
    [0, 0] entry is -7."""
    if np.any(np.asarray(a)[..., 0, 0] == -7.0):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigvals(a)


def _eigenvalue_failure(idx, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", _eigvals_failing_at_marked)
    return is_stable(_with_middle(-np.eye(8), -7.0 * np.eye(8))[idx])


def _unstable(idx, monkeypatch):
    A = _with_middle(-np.eye(8), np.eye(8))
    return solve_lyapunov(A[idx], np.stack([np.eye(8)] * 3)[idx])


def _asymmetric_solution(idx, monkeypatch):
    D = _with_middle(np.eye(8), np.full((8, 8), np.nan))
    return solve_lyapunov(-np.stack([np.eye(8)] * 3)[idx], D[idx])


def _off_for_marked(As, Ds, solve=lyapunov._sym_vec_solve):
    """The Lyapunov solve, off by 1e-3 I for the systems with D = 2 I."""
    return solve(As, Ds) + 1e-3 * (Ds[:, :1, :1] == 2.0) * np.eye(As.shape[-1])


def _residual(idx, monkeypatch):
    monkeypatch.setattr(lyapunov, "_sym_vec_solve", _off_for_marked)
    D = _with_middle(np.eye(8), 2.0 * np.eye(8))
    return solve_lyapunov(-np.stack([np.eye(8)] * 3)[idx], D[idx])


def _non_finite_pair(idx, monkeypatch):
    V = _with_middle(0.5 * np.eye(4), np.diag([0.5, np.inf, 0.5, 0.5]))
    return log_negativity(V[idx])


def _asymmetric_cm(idx, monkeypatch):
    bad = 0.5 * np.eye(4)
    bad[0, 1] = 0.1
    return symplectic_eigenvalues(_with_middle(0.5 * np.eye(4), bad)[idx])


def _non_finite_cm(idx, monkeypatch):
    V = _with_middle(0.5 * np.eye(4), np.diag([0.5, np.nan, 0.5, 0.5]))
    return symplectic_eigenvalues(V[idx])


def _indefinite_cm(idx, monkeypatch):
    V = _with_middle(0.5 * np.eye(4), -0.5 * np.eye(4))
    return symplectic_eigenvalues(V[idx])


#: a symmetric 4 x 4 matrix whose discriminant Sigma^2 - 4 det V is -7
NEGATIVE_DISCRIMINANT = np.array([
    [0.25, -0.67, -0.06, -2.22], [-0.67, 0.72, 0.04, 0.73],
    [-0.06, 0.04, -1.25, -1.2], [-2.22, 0.73, -1.2, -1.46]])


def _negative_discriminant(idx, monkeypatch):
    V = _with_middle(0.5 * np.eye(4), NEGATIVE_DISCRIMINANT)
    return log_negativity(V[idx])


def _negative_variance(idx, monkeypatch):
    return log_negativity(_with_middle(0.5 * np.eye(4), -0.5 * np.eye(4))[idx])


def _teleportation_det(idx, monkeypatch):
    V = _with_middle(0.5 * np.eye(4), np.diag([-1.0, -1.0, 0.0, 0.0]))
    return teleportation_fidelity(V[idx])


def _defective_drift(idx, monkeypatch):
    A = _with_middle(-np.eye(2), np.array([[-1.0, 1.0], [0.0, -1.0]]))
    return modal_resolvent(A[idx], np.ones((3, 1, 2))[idx],
                           np.ones((3, 2, 1))[idx])


def _quadrature(idx, monkeypatch):
    # the error estimate of the point with the larger kappa_a_e is made to
    # fail
    pre = presets.get("fig2d_magnon")
    k = pre.params.kappa_a_e
    P, det = _points_of(pre.params, pre.detunings,
                        kappa_a_e=np.array([k, 1.25 * k, k]))(idx)
    model = build_model(P, det, resolve_drive(P, det).g_m_eff)
    assert model.stable.all()
    monkeypatch.setattr(output_mode, "adaptive_gk21",
                        failing_gk21(P.kappa_a_e > k))
    return filtered_pair_cm(model.A, solve_lyapunov(model.A, model.D), P,
                            pre.filter_spec)


#: each stacked raise site of the sweep's stages: a call of the points
#: ``idx`` of a stack of three whose middle point fails there, and the
#: start of that failure's message
SITES = {
    "steady_state._require_finite": (_overflow, "mean field is not finite"),
    "steady_state._cavity_means": (_singular_cavity, "cavity mean-field"),
    "steady_state._denominator": (_vanishing_denominator, "vanishing"),
    "steady_state.amplitude_for_gm": (_unpumped_magnon, "drive port does"),
    "linear_model.is_stable": (_eigenvalue_failure, "eigenvalue solver"),
    "lyapunov.solve_lyapunov-unstable": (_unstable, "drift matrix is not"),
    "lyapunov.solve_lyapunov-asymmetry": (_asymmetric_solution,
                                          "Lyapunov solution asymmetric"),
    "lyapunov.solve_lyapunov-residual": (_residual, "Lyapunov residual"),
    "measures._matrices": (_non_finite_pair, "covariance matrix must be fin"),
    "measures._symmetric": (_asymmetric_cm, "covariance matrix must be sym"),
    "measures.symplectic_eigenvalues-finite": (_non_finite_cm,
                                               "covariance matrix must be fin"),
    "measures.symplectic_eigenvalues-cholesky": (_indefinite_cm,
                                                 "covariance matrix must be pos"),
    "measures.log_negativity-discriminant": (_negative_discriminant,
                                             "negative discriminant"),
    "measures.log_negativity-variance": (_negative_variance,
                                         "invalid two-mode CM"),
    "measures.teleportation_fidelity": (_teleportation_det,
                                        "teleportation output CM has det"),
    "output_mode.modal_resolvent": (_defective_drift,
                                    "drift matrix eigenvector condition"),
    "output_mode._integrated_pairs": (_quadrature, "frequency integral"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_condition_names_the_failing_point(site, monkeypatch):
    call, start = SITES[site]
    call(np.array([0, 2]), monkeypatch)      # the outer points pass
    with pytest.raises(NumericalCondition) as stack:
        call(np.arange(3), monkeypatch)
    with pytest.raises(NumericalCondition) as alone:
        call(np.array([1]), monkeypatch)
    assert type(stack.value) is type(alone.value)
    assert str(stack.value).startswith(start)
    assert stack.value.points.tolist() == [1]
    assert alone.value.points.tolist() == [0]
    assert stack.value.messages == [str(stack.value)] == [str(alone.value)]
