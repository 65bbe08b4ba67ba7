"""State space of the access control decision process.

A state pairs an emergency status with the set of already-granted accesses
and the access request currently under control.  The granted set is encoded
as a bitmask: access (u, r) occupies bit u * num_resources + r, so set
membership and insertion are single bit operations and the whole powerset
is indexed by the integers [0, 2^(NU*NR)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterator, Optional

CAP_BITS = 12  # the most access bits a model may have: 3 x 4 is 106,496 states


class CapacityError(ValueError):
    """Raised when the model dimensions exceed the state-space capacity."""


class Emergency(IntEnum):
    CALM = 0
    ALERT = 1

    @property
    def label(self) -> str:
        return "calm" if self is Emergency.CALM else "alert"


class Action(IntEnum):
    # Deny sorts first: downstream tie-breaking falls back to the
    # fail-safe decision.
    DENY = 0
    ALLOW = 1

    @property
    def label(self) -> str:
        return "deny" if self is Action.DENY else "allow"


ACTIONS = (Action.DENY, Action.ALLOW)


@dataclass(frozen=True)
class Access:
    """A (user, resource) pair; granting it adds it to the granted set."""

    user: int
    resource: int


# The empty ("eps") request: no access is pending control.
Request = Optional[Access]


@dataclass(frozen=True)
class ModelDims:
    """The shape of a model, and the deterministic order of its states.

    States are ordered emergency-major, then by granted-set index, then by
    request (concrete accesses in bit order, the empty request last);
    state_index and index_state are the bijection with [0, num_states).
    """

    num_users: int
    num_resources: int

    def __post_init__(self) -> None:
        if self.num_users < 1 or self.num_resources < 1:
            raise ValueError(
                f"need at least one user and one resource, got "
                f"{self.num_users} x {self.num_resources}"
            )
        if self.num_access_bits > CAP_BITS:
            raise CapacityError(
                f"{self.num_users} users x {self.num_resources} resources needs "
                f"{self.num_access_bits} bits, exceeding the cap of {CAP_BITS}; "
                f"the powerset state space would be intractable"
            )

    # the sizes are cached, since the kernel and the solvers read them at every call
    @cached_property
    def num_access_bits(self) -> int:
        return self.num_users * self.num_resources

    @cached_property
    def num_sets(self) -> int:
        return 1 << self.num_access_bits

    @cached_property
    def num_states(self) -> int:
        return 2 * self.num_sets * (self.num_access_bits + 1)

    def check_access(self, a: Access) -> None:
        if not (0 <= a.user < self.num_users and 0 <= a.resource < self.num_resources):
            raise ValueError(f"access {a} out of range for {self}")

    def accesses(self) -> Iterator[Access]:
        for u in range(self.num_users):
            for r in range(self.num_resources):
                yield Access(u, r)

    @cached_property
    def requests(self) -> tuple[Request, ...]:
        """The requests in request-index order: position() takes an index into it."""
        return (*self.accesses(), None)

    def position(self, emergency: int, granted: int, request: int) -> int:
        """State index from integer coordinates, request indexing self.requests.

        The coordinates are not range-checked; state_index checks them.
        """
        return (emergency * self.num_sets + granted) * (self.num_access_bits + 1) + request

    def state_index(self, s: State) -> int:
        if not 0 <= s.granted < self.num_sets:
            raise ValueError(f"granted-set index {s.granted} out of range")
        if s.request is None:
            request = self.num_access_bits
        else:
            self.check_access(s.request)
            request = access_bit_index(s.request, self)
        return self.position(int(s.emergency), s.granted, request)

    def index_state(self, i: int) -> State:
        if not 0 <= i < self.num_states:
            raise ValueError(f"state index {i} out of range [0, {self.num_states})")
        i, req = divmod(i, self.num_access_bits + 1)
        emergency, granted = divmod(i, self.num_sets)
        return State(Emergency(emergency), granted, self.requests[req])


def access_bit_index(a: Access, d: ModelDims) -> int:
    """Bit position of an access in the granted-set mask: u * NR + r."""
    return a.user * d.num_resources + a.resource


def set_contains(k: int, a: Access, d: ModelDims) -> bool:
    return (k >> access_bit_index(a, d)) & 1 == 1


def set_insert(k: int, a: Access, d: ModelDims) -> int:
    return k | (1 << access_bit_index(a, d))


@dataclass(frozen=True)
class State:
    emergency: Emergency
    granted: int
    request: Request
