"""Exception hierarchy: everything catchable via NumaProfError."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.TopologyError,
    errors.AllocationError,
    errors.InvalidAddressError,
    errors.ProtectionError,
    errors.BindingError,
    errors.MechanismError,
    errors.ProgramError,
    errors.ProfileError,
    errors.WorkerError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_subclass_of_base(exc):
    assert issubclass(exc, errors.NumaProfError)
    with pytest.raises(errors.NumaProfError):
        raise exc("boom")


def test_base_is_exception():
    assert issubclass(errors.NumaProfError, Exception)


def test_distinct_types():
    assert len(set(ALL_ERRORS)) == len(ALL_ERRORS)
