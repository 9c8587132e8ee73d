"""Simulation laboratory and analysis library for quantum-secured
identification with secret-key refuelling.

The package splits into three layers:

* physics simulation: weak-pulse key transmission over a lossy line with
  pluggable eavesdropper strategies (``qident.channel``);
* the two identification protocols plus the unconditionally secure
  authentication code they rely on (``qident.protocol1``,
  ``qident.protocol2``, ``qident.auth``, ``qident.estimation``);
* closed-form analysis of impersonation probabilities and the secret-bit
  budget (``qident.budget``).

``qident.cli`` exposes everything as a deterministic command line tool.
"""

from .core import (
    BitString,
    LengthMismatch,
    PoolExhausted,
    QidentError,
    SecretPool,
    make_rng,
    random_bitstring,
    sync_pools,
)

__all__ = [
    "BitString",
    "LengthMismatch",
    "PoolExhausted",
    "QidentError",
    "SecretPool",
    "make_rng",
    "random_bitstring",
    "sync_pools",
]

__version__ = "0.1.0"
