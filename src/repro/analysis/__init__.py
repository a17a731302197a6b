"""Analyses layered on escape information: sharing (Theorem 2)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.sharing": (
            "SharingInfo", "observed_unshared_spines", "sharing_global",
            "sharing_local",
        ),
    },
)
