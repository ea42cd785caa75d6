"""Package hygiene: exports resolve, errors form a hierarchy, reprs work.

Cheap but real guarantees for a library release: ``__all__`` names must
exist, every custom exception must derive from :class:`ReproError`, and
the repr/str of the core objects must not raise (they appear in logs and
assertion messages everywhere).
"""

import importlib
import inspect

import pytest

import repro
import repro.core
import repro.errors
from repro import errors


PACKAGES = [
    "repro",
    "repro.core",
    "repro.query",
    "repro.relational",
    "repro.bitcoin",
    "repro.graphs",
    "repro.storage",
    "repro.workloads",
    "repro.reductions",
    "repro.likelihood",
    "repro.obs",
    "repro.service",
    "repro.fabric",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_exception_hierarchy():
    for name, obj in vars(errors).items():
        if inspect.isclass(obj) and issubclass(obj, Exception):
            if obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name


def test_integrity_violation_carries_witnesses():
    error = errors.IntegrityViolationError("boom", violations=["v1"])
    assert error.violations == ["v1"]
    assert errors.IntegrityViolationError("boom").violations == []


def test_parse_error_position():
    assert errors.ParseError("bad", position=7).position == 7


def test_core_reprs(figure2):
    from repro.core.checker import DCSatChecker
    from repro.core.fd_graph import FdTransactionGraph
    from repro.core.ind_graph import IndQTransactionGraph
    from repro.core.workspace import Workspace

    checker = DCSatChecker(figure2)
    for obj in (
        figure2,
        figure2.current,
        figure2.pending[0],
        checker,
        checker.workspace,
        checker.fd_graph,
        checker.ind_graph,
        checker.check("q() <- TxOut(t, s, 'U8Pk', a)"),
    ):
        assert repr(obj)


def test_constraint_strs(figure2):
    for constraint in figure2.constraints:
        assert str(constraint)


def test_violation_str():
    from repro.relational.checking import find_violations
    from repro.relational.constraints import ConstraintSet, Key
    from repro.relational.database import Database, make_schema

    schema = make_schema({"R": ["a", "b"]})
    cs = ConstraintSet(schema, [Key("R", ["a"], schema)])
    db = Database.from_dict(schema, {"R": [(1, "x"), (1, "y")]})
    violations = find_violations(db, cs)
    assert "violation of" in str(violations[0])


def test_version_marker():
    assert repro.__version__ == "1.0.0"
