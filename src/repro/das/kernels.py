"""The setup-engine names and their validation.

Kept apart from the engines themselves so that
:class:`~repro.experiments.ExperimentConfig` can validate a
``setup_kernel`` choice without importing the distributed setup stack.
"""

from __future__ import annotations

from typing import Optional

from ..errors import invalid_field

#: Setup-engine identifiers for ``run_das_setup`` / ``run_slp_setup``.
FAST_SETUP_KERNEL = "fast"
LEGACY_SETUP_KERNEL = "legacy"
SETUP_KERNELS = (FAST_SETUP_KERNEL, LEGACY_SETUP_KERNEL)

#: The engine used when a call does not choose one.  Both engines are
#: bit-identical (differentially tested), so the fastest is the default;
#: ``legacy`` remains selectable so a regression can be bisected.
DEFAULT_SETUP_KERNEL = FAST_SETUP_KERNEL


def resolve_setup_kernel(setup_kernel: Optional[str], owner: str) -> str:
    """Validate a ``setup_kernel`` choice (``None`` = the default)."""
    resolved = setup_kernel if setup_kernel is not None else DEFAULT_SETUP_KERNEL
    if resolved not in SETUP_KERNELS:
        raise invalid_field(
            owner,
            "setup_kernel",
            setup_kernel,
            f"pick one of {SETUP_KERNELS} (or None for the default)",
        )
    return resolved
