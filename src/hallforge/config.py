"""Resource caps for enumeration-heavy operations.

All enumerators check against a `Caps` instance before allocating, so a
runaway request fails fast with a structured `CapExceeded` instead of
exhausting memory.  The environment variable HALLFORGE_CAP_MB bounds the
dense bookkeeping arrays used by orbit enumeration and the block tables of
a submodule census.
"""

import os
from dataclasses import dataclass

from .errors import CapExceeded, HallforgeError


@dataclass(frozen=True)
class Caps:
    max_tuple_count: int = 2_000_000      # ambient points an orbit walk may touch
    max_end_scan: int = 2 ** 16           # full scans of End(M) / Hom(M,N)
    max_subspace_enum: int = 200_000      # subspace tuples per submodule census
    max_candidates: int = 200_000         # extension lines per constructive level
    max_total_candidates: int = 2_000_000  # extension lines over all levels of a registry

    def check(self, what: str, estimate) -> None:
        cap = {
            "tuple_count": self.max_tuple_count,
            "end_scan": self.max_end_scan,
            "subspace_enum": self.max_subspace_enum,
            "candidates": self.max_candidates,
            "total_candidates": self.max_total_candidates,
        }[what]
        if estimate > cap:
            raise CapExceeded(what, estimate, cap)

    def memory_bytes(self) -> int:
        """The memory cap in bytes, from HALLFORGE_CAP_MB (default 4096)."""
        raw = os.environ.get("HALLFORGE_CAP_MB", "4096")
        try:
            return int(raw) * 1024 * 1024
        except ValueError:
            raise HallforgeError(f"HALLFORGE_CAP_MB must be a whole number of megabytes, "
                                 f"got {raw!r}") from None

    def check_memory(self, nbytes: int) -> None:
        cap = self.memory_bytes()
        if nbytes > cap:
            raise CapExceeded("memory_mb", nbytes // (1024 * 1024), cap // (1024 * 1024))


DEFAULT_CAPS = Caps()
