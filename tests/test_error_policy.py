"""Every exception class of the package falls under the error policy: an
input error is a ``cli.ConfigError``, a known numerical condition a
``params.NumericalCondition``; anything else is a bug, and a wrong-shaped
stack handed to a measure or to the Lyapunov solver is one."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import chiralcmm
from chiralcmm.cli import ConfigError
from chiralcmm.lyapunov import solve_lyapunov
from chiralcmm.measures import (
    is_physical,
    log_negativity,
    residual_contangle_min,
    symplectic_eigenvalues,
    teleportation_fidelity,
)
from chiralcmm.params import NumericalCondition

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
