"""NAT classification (RFC 3489 taxonomy used by the paper)."""

from __future__ import annotations

import enum
from typing import Optional

__all__ = ["NatType", "split_nat_spec"]


class NatType(enum.Enum):
    """Mapping/filtering behaviour classes.

    * ``FULL_CONE`` — endpoint-independent mapping, no inbound filter.
    * ``RESTRICTED_CONE`` — endpoint-independent mapping, inbound allowed
      only from IPs previously contacted.
    * ``PORT_RESTRICTED`` — inbound allowed only from (IP, port) pairs
      previously contacted.
    * ``SYMMETRIC`` — per-destination mapping (a new external port per
      destination), port-restricted filtering; classic hole punching
      fails when both sides are symmetric.
    * ``OPEN`` — no NAT (public host); used by STUN classification.
    """

    OPEN = "open"
    FULL_CONE = "full-cone"
    RESTRICTED_CONE = "restricted-cone"
    PORT_RESTRICTED = "port-restricted"
    SYMMETRIC = "symmetric"

    @classmethod
    def parse(cls, value: "NatType | str") -> "NatType":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(f"unknown NAT type {value!r}")

    @property
    def hole_punchable(self) -> bool:
        """Whether WAVNet's UDP hole punching works against this type
        (assuming the peer is at most port-restricted)."""
        return self in (
            NatType.OPEN,
            NatType.FULL_CONE,
            NatType.RESTRICTED_CONE,
            NatType.PORT_RESTRICTED,
        )


#: Port-allocation policy suffixes accepted in combined NAT specs such as
#: ``"symmetric-sequential"`` (see :func:`split_nat_spec`).
PORT_ALLOC_POLICIES = ("sequential", "stride", "random")


def split_nat_spec(value: "NatType | str") -> tuple[NatType, Optional[str]]:
    """Split a NAT spec into ``(NatType, port_alloc | None)``.

    Scenario configs name symmetric variants by allocation policy —
    ``"symmetric-sequential"``, ``"symmetric-stride"``,
    ``"symmetric-random"`` — because the policy decides whether port
    prediction can traverse the NAT. Plain specs (``"port-restricted"``,
    ``NatType.SYMMETRIC``) pass through with ``None`` (the table's
    default policy applies).
    """
    if isinstance(value, NatType):
        return value, None
    for policy in PORT_ALLOC_POLICIES:
        suffix = f"-{policy}"
        if isinstance(value, str) and value.endswith(suffix):
            return NatType.parse(value[: -len(suffix)]), policy
    return NatType.parse(value), None
