"""The v1 advice API: one request/response pair for every advice surface.

Every advice surface speaks one dataclass pair, so each answer carries
the operational context a caller wants — which model version answered,
whether the canary arm served the request, whether lexing needed error
recovery:

- :class:`AdviceRequest` — a snippet in (source text, or a pre-encoded
  token-id row plus its source digest), with an optional caller
  correlation ``id``.
- :class:`AdviceResult` — verdict + per-clause advice out, with
  ``degraded`` / ``recovered`` / ``model_version`` / ``arm`` as
  first-class fields instead of side channels.

``MultiModelEngine.advise_v1`` and ``ShardedEngine.advise_v1`` — the only
public advice entry points — consume and produce these.  Over HTTP the
same shapes serve ``/v1/advise`` and ``/v1/advise/batch``
(``docs/serving.md`` documents the JSON schemas); ``schema_version`` in
``/v1/stats`` reports :data:`SCHEMA_VERSION` so clients can detect the
surface they are talking to.

This module is deliberately dependency-light (no engine/registry imports)
so every serving layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["SCHEMA_VERSION", "AdviceRequest", "AdviceResult"]

#: Version of the v1 request/response wire schema, reported in
#: ``/v1/stats``.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AdviceRequest:
    """One snippet submitted for advice.

    Exactly one input form must be provided: ``code`` (source text — the
    normal path, the engine lexes and encodes it) or ``ids`` + ``digest``
    (a pre-encoded token-id row in the directive head's vocabulary and
    the source digest it was derived from, for callers that already
    encoded the snippet).  ``id`` is an opaque caller correlation tag
    echoed back on the matching :class:`AdviceResult`.
    """

    code: Optional[str] = None
    ids: Optional[object] = None     # np.ndarray row; object to stay dep-free
    digest: Optional[bytes] = None
    id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.code is None) == (self.ids is None):
            raise ValueError(
                "AdviceRequest needs exactly one of code= or ids=")
        if self.ids is not None and self.digest is None:
            raise ValueError(
                "AdviceRequest with ids= needs the source digest= too")

    @classmethod
    def of(cls, request) -> "AdviceRequest":
        """Coerce ``request`` to an :class:`AdviceRequest`.

        Accepts an existing request (returned as-is) or a bare string
        (wrapped as ``code``) so bulk callers can pass plain snippet
        lists without ceremony.
        """
        if isinstance(request, cls):
            return request
        if isinstance(request, str):
            return cls(code=request)
        raise TypeError(
            f"cannot make an AdviceRequest from {type(request).__name__}")


@dataclass(frozen=True)
class AdviceResult:
    """One advisor answer, with its operational context attached.

    ``verdict``/``probability`` are the directive decision (positive iff
    P(+) > 0.5, exactly the legacy rule); ``clauses`` maps clause-head
    name to ``(probability, suggested)`` pairs and ``recommended_clauses``
    lists the ones worth suggesting (directive-positive and p > 0.5).
    ``degraded`` marks a neutral placeholder the fleet could not compute;
    ``recovered`` marks a real verdict computed from error-recovered
    lexing; ``model_version`` is the checkpoint tag that answered and
    ``arm`` is ``"primary"`` or ``"canary"`` under a live canary rollout.
    ``id`` echoes the request's correlation tag.
    """

    verdict: bool
    probability: float
    clauses: Dict[str, object] = field(default_factory=dict)
    degraded: bool = False
    recovered: bool = False
    model_version: str = "0"
    arm: str = "primary"
    id: Optional[str] = None

    def recommended_clauses(self) -> List[str]:
        """Clause names worth suggesting: verdict-positive and p > 0.5."""
        if not self.verdict:
            return []
        return [name for name, c in self.clauses.items() if c.suggested]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dict — the v1 response body of ``/v1/advise`` and
        of each ``/v1/advise/batch`` result."""
        body = {
            "needs_directive": self.verdict,
            "p_directive": round(self.probability, 6),
            "clauses": {
                name: {"probability": round(c.probability, 6),
                       "suggested": c.suggested}
                for name, c in self.clauses.items()
            },
            "recommended_clauses": self.recommended_clauses(),
            "degraded": self.degraded,
            "recovered": self.recovered,
            "model_version": self.model_version,
            "arm": self.arm,
        }
        if self.id is not None:
            body["id"] = self.id
        return body
