"""Picklable method payloads: primitive tuples describing methods.

Spec strings cover the stock methods, but they are lossy: an
informative-prior aHPD or a non-default ET/HPD prior has no faithful
spec.  Payloads close that gap — a primitive tuple carrying the *full*
configuration, decodable in any worker and hashed into the cache token
— so a cell can carry any library method (``CellSpec.method_payload``).

The machinery lives here (not in :mod:`repro.runtime.cells`, which
re-exports it) because the intervals layer itself needs payload keys:
the cross-request :class:`~repro.runtime.solvebatch.SolveBroker` groups
pending solves by payload, and the small-n
:class:`~repro.intervals.table.SolveTable` keys its interval
rows the same way.  Payload bytes are part of the cache
contract — two equal-configured method instances must produce equal
payloads, and the payload of any method must be stable across
processes and PRs.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from .agresti_coull import AgrestiCoullInterval
from .ahpd import AdaptiveHPD
from .base import IntervalMethod
from .clopper_pearson import ClopperPearsonInterval
from .et import ETCredibleInterval
from .hpd import HPDCredibleInterval
from .priors import BetaPrior
from .transforms import ArcsineInterval, LogitInterval
from .wald import WaldInterval
from .wilson import WilsonInterval

__all__ = [
    "build_method_from_payload",
    "method_payload",
]

#: Stateless method classes: the class name alone is the configuration.
_PLAIN_METHODS: dict[str, type] = {
    "wald": WaldInterval,
    "wilson": WilsonInterval,
    "ac": AgrestiCoullInterval,
    "cp": ClopperPearsonInterval,
    "arcsine": ArcsineInterval,
    "logit": LogitInterval,
}
_PLAIN_METHOD_KINDS = {klass: kind for kind, klass in _PLAIN_METHODS.items()}


def _prior_payload(prior: BetaPrior) -> tuple[float, float, str]:
    return (float(prior.a), float(prior.b), str(prior.name))


def method_payload(method: IntervalMethod) -> tuple | None:
    """A primitive tuple fully describing *method*, or ``None``.

    The payload captures everything the method reads — class and
    priors — for the library's method classes (exact types only: a
    subclass may carry state the payload cannot see and is therefore
    not encodable).  ``None`` means no cell can carry the method; the
    solve table skips it and the solve broker keys it by identity.
    """
    kind = _PLAIN_METHOD_KINDS.get(type(method))
    if kind is not None:
        return (kind,)
    if type(method) is ETCredibleInterval:
        return ("et", _prior_payload(method.prior))
    if type(method) is HPDCredibleInterval:
        return ("hpd", _prior_payload(method.prior))
    if type(method) is AdaptiveHPD:
        return ("ahpd", tuple(_prior_payload(prior) for prior in method.priors))
    return None


def build_method_from_payload(payload: tuple) -> IntervalMethod:
    """Reconstruct the method a :func:`method_payload` tuple describes."""
    kind = payload[0]
    plain = _PLAIN_METHODS.get(kind)
    if plain is not None:
        return plain()
    if kind == "et":
        return ETCredibleInterval(prior=BetaPrior(*payload[1]))
    if kind == "hpd":
        return HPDCredibleInterval(prior=BetaPrior(*payload[1]))
    if kind == "ahpd":
        return AdaptiveHPD(priors=tuple(BetaPrior(*entry) for entry in payload[1]))
    raise ValidationError(f"unknown method payload kind {kind!r}")
