"""SHA-256 and BLAKE2b without loading OpenSSL.

``import hashlib`` always imports ``_hashlib``, which maps OpenSSL's
``libcrypto`` (about 3.5 MB resident) even when only a builtin digest is
used. CPython ships both digests in lean builtin modules that give the
same bytes — ``hashlib.blake2b`` *is* ``_blake2.blake2b`` — so the run
registry's content ids and the phase layer's state digests take them
from there, the way ``random.py`` takes SHA-512. ``hashlib`` is the
fallback where a builtin module is missing.
"""

from __future__ import annotations

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
