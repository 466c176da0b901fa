"""Hashes and ``numpy.random`` that keep OpenSSL out of a run.

``import hashlib`` always imports ``_hashlib``, which maps OpenSSL's
``libcrypto`` (about 3.5 MB resident) even when only a builtin digest is
used. CPython ships both digests in lean builtin modules that give the
same bytes — ``hashlib.blake2b`` *is* ``_blake2.blake2b`` — so the run
registry's content ids and the phase layer's state digests take them
from there, the way ``random.py`` takes SHA-512. ``hashlib`` is the
fallback where a builtin module is missing.

``numpy.random`` reaches ``hashlib`` too: its ``bit_generator`` does
``from secrets import randbits``, and ``secrets`` imports ``hmac``,
which imports ``hashlib``. :func:`numpy_random` imports it past that.
"""

from __future__ import annotations

import sys
import types

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def numpy_random() -> types.ModuleType:
    """The ``numpy.random`` module, imported without loading OpenSSL.

    While numpy imports it, ``sys.modules["secrets"]`` holds a stub whose
    ``randbits`` is ``SystemRandom().getrandbits`` — what the stdlib's
    ``secrets.randbits`` is — so OS entropy (``SeedSequence()``, and the
    legacy global ``RandomState`` seeded during the import) comes from
    the same source, and seeded streams are untouched. A plain import
    where ``secrets`` or ``numpy.random`` is already loaded, or where
    the guarded one fails.
    """
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        from random import SystemRandom

        stub = types.ModuleType("secrets")
        stub.randbits = SystemRandom().getrandbits
        sys.modules["secrets"] = stub
        try:
            import numpy.random

            return numpy.random
        except ImportError:
            pass
        finally:
            del sys.modules["secrets"]
    import numpy.random

    return numpy.random
