"""Small compatibility shims shared across the package.

Small records (stream markers, kernel costs, cache entries) want
``dataclass(slots=True)`` for cheap construction and a smaller memory
footprint, but ``slots=True`` only exists on Python >= 3.10 and the package
still supports 3.9.  ``DATACLASS_SLOTS`` expands to ``{"slots": True}`` where
available and to nothing otherwise, so call sites can write
``@dataclass(frozen=True, **DATACLASS_SLOTS)`` unconditionally.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

DATACLASS_SLOTS: Dict[str, Any] = {"slots": True} if sys.version_info >= (3, 10) else {}
