"""Small shared helpers: seed derivation and the config value checks."""

import hashlib
import sys

from .errors import EinPathError


def derive_seed(*parts):
    """Derive a stable 63-bit sub-seed from a tuple of hashable parts.

    Uses sha256 of the repr, so the result is reproducible across runs,
    platforms and Python versions (unlike built-in `hash`).
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_int(name, value, least=None):
    """Refuse, with EinPathError, anything but an int at least `least`.

    Bools and other int subclasses are refused: derive_seed hashes a seed's
    repr, so True must not pass for 1.
    """
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise EinPathError(f"{name} must be an integer{bound}")


def check_number(name, value, least, below=None):
    """Refuse, with EinPathError, anything but a finite int or float (not a
    bool) at least `least` and, when given, below `below`. nan fails every
    comparison; an int past the largest float, which float arithmetic
    overflows on, is refused too."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not least <= value <= sys.float_info.max
            or below is not None and not value < below):
        rule = f">= {least}" if below is None else f"in [{least}, {below})"
        raise EinPathError(f"{name} must be a finite number {rule}")
