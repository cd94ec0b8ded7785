"""Exception types shared across the package, and the decoders' int checks."""


class QuditMbqcError(Exception):
    """Base class for all package errors."""


class UnsupportedModulusError(QuditMbqcError):
    """Operation requires a field modulus (prime or prime power)."""


class SizeGuardError(QuditMbqcError):
    """Instance exceeds the exhaustive-enumeration guard."""


class PhaseDomainError(QuditMbqcError):
    """A phase is not expressible as a d-th root of unity."""


class SparseFormError(QuditMbqcError):
    """A state left the uniform tau-power sparse representation."""


class InconsistencyError(QuditMbqcError):
    """Dense backend found a phase beyond the snapping tolerance."""


class PlanFormatError(QuditMbqcError):
    """Plan file is malformed; message carries field diagnostics."""


class VerificationError(QuditMbqcError):
    """Compiled plan disagrees with its target table."""


class UnsupportedWitnessError(QuditMbqcError):
    """No witness procedure applies to the instance."""


def plain_int(value, name: str) -> int:
    """value, if an int; a bool (JSON true), a float or a string is refused."""
    if type(value) is not int:
        raise QuditMbqcError(f"{name} is {value!r}, expected an integer")
    return value


def plain_dimension(d) -> int:
    """d, if an int of at least 2: a qudit dimension."""
    if plain_int(d, "d") < 2:
        raise QuditMbqcError(f"d is {d!r}, expected an integer >= 2")
    return d


def plain_index(value, name: str, bound: int) -> int:
    """value, if an int in 0..bound-1: a party or a setting."""
    if not 0 <= plain_int(value, name) < bound:
        raise QuditMbqcError(f"{name} {value} is outside 0..{bound - 1}")
    return value


def plain_ints(values, name: str, length: int | None = None) -> tuple[int, ...]:
    """values, a list of ints (of the given length, if any), as a tuple."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        raise QuditMbqcError(f"{name} is {values!r}, expected a list of "
                             f"{length or 'some'} integers")
    for v in values:
        if type(v) is not int:
            raise QuditMbqcError(f"{name} has {v!r}, expected an integer")
    return tuple(values)
