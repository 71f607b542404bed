"""Every exception class of the package falls under the error policy: an
input error is a ``cli.ConfigError``, a known numerical condition a
``params.NumericalCondition``; anything else is a bug."""

import importlib
import inspect
import pkgutil

import pytest

import chiralcmm
from chiralcmm.cli import ConfigError
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
