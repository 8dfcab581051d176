"""ICD-10 style diagnosis code handling.

Codes are kept as plain strings in a canonical form: an uppercase letter,
two digits, then an optional dot followed by one or two alphanumerics
(e.g. ``J06.9``, ``I25``, ``S72.01``). Normalization is idempotent, so two
codes compare equal exactly when their normalized strings are equal.
"""

from __future__ import annotations

import functools
import re

_CODE_RE = re.compile(r"^[A-Z][0-9]{2}(\.[A-Z0-9]{1,2})?$")


class InvalidCodeError(ValueError):
    """Raised when a string cannot be normalized into a diagnosis code."""


# bounded: /score requests bring client-chosen codes. lru_cache stores no
# exceptions, so an invalid code raises on every call.
@functools.lru_cache(maxsize=16_384)
def normalize_code(raw: str) -> str:
    """Return the canonical form of a diagnosis code.

    Accepts lowercase input and dotless subcategories ("j069" -> "J06.9").
    Raises InvalidCodeError when the result does not match the code grammar.
    """
    s = raw.strip().upper().replace(" ", "")
    if len(s) > 3 and "." not in s:
        s = s[:3] + "." + s[3:]
    if not _CODE_RE.match(s):
        raise InvalidCodeError(f"not a valid diagnosis code: {raw!r}")
    return s


def is_valid_code(raw: str) -> bool:
    try:
        normalize_code(raw)
    except InvalidCodeError:
        return False
    return True


def code_prefix(code: str) -> str:
    """3-character chapter/block key of a normalized code ("J06.9" -> "J06")."""
    return code[:3]
