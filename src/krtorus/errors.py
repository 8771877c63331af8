"""Error taxonomy shared across the package.

Two failure families matter to callers: inputs the pipeline refuses to
analyze (bad files, surfaces outside the supported class, fields whose
graph fails a structural hypothesis) and internal cross-checks that
failed, which indicate a defect rather than a bad input. The CLI maps
the first family to exit code 1 and the second to exit code 2.
Every internal check is made to fire by a test or allowlisted with a
reason in ``tests/test_internal_checks.py``; a check that cannot fire
is removed, with its proof left where it was.
"""
from __future__ import annotations


class KrTorusError(Exception):
    """Base class for all package errors."""


class InputRejected(KrTorusError):
    """The input cannot be analyzed. Carries a machine-readable code."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(message)
        self.code = code
        self.details = dict(details)

    def payload(self) -> dict:
        out = {"code": self.code, "message": str(self)}
        out.update(self.details)
        return out


class InternalInvariantError(KrTorusError):
    """An internal consistency check failed: a bug, not a bad input."""
