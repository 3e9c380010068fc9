"""Tests of the estimator-backend registry and its contract."""

import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    EstimatorBackend,
    UnknownBackendError,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
)


def test_builtin_backends_are_registered():
    assert backend_names() == ["domo-qp", "message-tracing", "mnt"]
    assert DEFAULT_BACKEND == "domo-qp"
    assert DEFAULT_BACKEND in backend_names()


def test_get_backend_returns_the_registered_singleton():
    for name in backend_names():
        backend = get_backend(name)
        assert backend.name == name
        assert backend is get_backend(name)


def test_only_domo_qp_is_exact_and_relaxable():
    qp = get_backend("domo-qp")
    # Only the paper's QP honors the full constraint system, and only it
    # gains anything from a ladder-relaxed re-solve.
    assert qp.capabilities.exact and qp.capabilities.supports_relaxation
    for name in ("mnt", "message-tracing"):
        approx = get_backend(name)
        assert not approx.capabilities.exact
        assert not approx.capabilities.supports_relaxation


def test_unknown_backend_is_a_value_error_listing_names():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("nope")
    assert isinstance(excinfo.value, ValueError)
    message = str(excinfo.value)
    assert "'nope'" in message
    for name in backend_names():
        assert name in message


def test_available_backends_snapshot_is_sorted():
    snapshot = available_backends()
    assert list(snapshot) == backend_names()
    assert all(snapshot[name].name == name for name in snapshot)


def test_register_backend_requires_a_name():
    with pytest.raises(ValueError, match="non-empty name"):
        register_backend(EstimatorBackend())
