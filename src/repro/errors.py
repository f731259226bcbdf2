"""Typed errors shared across package boundaries.

Kept in a dependency-free leaf so that both the artifact store
(:mod:`repro.experiments.artifacts`) and the compiled-schedule plumbing
(:mod:`repro.parallel.compiled`) can raise/catch the same classes
without either importing the other's (heavy) package at module scope.
"""

from __future__ import annotations

__all__ = ["ArtifactVersionError"]


class ArtifactVersionError(RuntimeError):
    """An artifact declares a format version this build cannot read.

    Raised instead of a parse crash so callers (``ensure_compiled``, the
    serving plane) can treat a future-format artifact as a
    miss and recompile rather than dying on foreign bytes.
    """
