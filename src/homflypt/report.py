"""Verification reports shared by the identity and combinatorics verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .laurent import BivarLaurent

__all__ = ["VerificationReport"]


def _encode(value: Any):
    """JSON-encode polynomials and exact rationals canonically."""
    if isinstance(value, BivarLaurent):
        return value.to_quadruples()
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


def _render(value: Any) -> str:
    if isinstance(value, (BivarLaurent, Fraction)):
        return str(value)
    return repr(value)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact identity check.

    `lhs`, `rhs` and `residual` are polynomials or exact rationals with
    ``residual == lhs - rhs``.  Reports are built by `of`, which holds the
    one pass rule.  `context` carries the link description and parameters.
    """

    identity: str
    passed: bool
    lhs: Any
    rhs: Any
    residual: Any
    context: dict = field(default_factory=dict)

    @classmethod
    def of(cls, identity: str, lhs, rhs, context: dict, also: bool = True) -> "VerificationReport":
        """The report on ``lhs == rhs``: it passes when the residual is zero
        and `also` holds.  `also` is the second condition some identities
        carry: the p-form of thm14 and thm15, and for the counting lemmas the
        agreement of the enumerated and closed-form left sides."""
        residual = lhs - rhs
        return cls(identity, not residual and also, lhs, rhs, residual, context)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "pass": self.passed,
            "lhs": _encode(self.lhs),
            "rhs": _encode(self.rhs),
            "residual": _encode(self.residual),
            "context": {key: _encode(value) for key, value in self.context.items()},
        }

    def summary(self) -> str:
        label = self.context.get("label")
        head = f"{self.identity}" + (f" [{label}]" if label else "")
        extra = ""
        if not self.passed:
            extra = f"  lhs={_render(self.lhs)}  rhs={_render(self.rhs)}"
        return f"{head}: {'PASS' if self.passed else 'FAIL'}{extra}"
