"""What verify hands back: per-chart results, the certificate and its JSON.

Kept apart from verify, so the CLI can print a certificate and name a
DegreeOverflow without loading the certification code itself.
"""
from __future__ import annotations

from typing import NamedTuple

from .fan import dumps_json


class DegreeOverflow(RuntimeError):
    """A polynomial elimination step would exceed the degree cap."""

    def __init__(self, cone, estimate: int, cap: int, what: str = "elimination degree estimate"):
        super().__init__(f"chart {cone}: {what} {estimate} exceeds cap {cap}")
        self.cone = cone
        self.estimate = estimate
        self.cap = cap


class CheckResult(NamedTuple):
    ok: bool
    method: str
    witnesses: tuple = ()


class ChartRecord(NamedTuple):
    cone: tuple[int, int, int]
    injective: bool
    immersive: bool
    injectivity_method: str
    witnesses: tuple = ()


class Certificate(NamedTuple):
    charts: tuple[ChartRecord, ...]
    pullback_ok: bool
    pullback_witnesses: tuple
    embedded: bool

    @property
    def verdict_vector(self) -> tuple:
        return tuple(
            (r.cone, r.injective, r.immersive) for r in self.charts
        ) + (("pullback", self.pullback_ok),)


def certificate_to_dict(cert: Certificate) -> dict:
    """certificate.json's object: the fields of the certificate and of each chart record."""
    return {**cert._asdict(), "charts": [r._asdict() for r in cert.charts]}


def dumps_certificate(cert: Certificate) -> str:
    return dumps_json(certificate_to_dict(cert), sort_keys=True) + "\n"
