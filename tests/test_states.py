import random

import pytest
from oracle import all_states

from acmdp import (
    Access,
    CapacityError,
    Emergency,
    ModelDims,
    State,
    access_bit_index,
    set_contains,
    set_insert,
)

D22 = ModelDims(2, 2)


class TestBitIndex:
    @pytest.mark.parametrize(
        "access,expected",
        [(Access(0, 0), 0), (Access(0, 1), 1), (Access(1, 0), 2), (Access(1, 1), 3)],
    )
    def test_examples(self, access, expected):
        assert access_bit_index(access, D22) == expected

    @pytest.mark.parametrize("nu,nr", [(1, 1), (2, 2), (3, 2), (2, 5)])
    def test_injective_with_exact_range(self, nu, nr):
        d = ModelDims(nu, nr)
        indices = [access_bit_index(a, d) for a in d.accesses()]
        assert sorted(indices) == list(range(nu * nr))


class TestSetOps:
    def test_contains_101(self):
        # k=5 is binary 101: exactly the accesses at bits 0 and 2
        assert set_contains(5, Access(0, 0), D22)
        assert set_contains(5, Access(1, 0), D22)
        assert not set_contains(5, Access(0, 1), D22)
        assert not set_contains(5, Access(1, 1), D22)

    def test_empty_set_contains_nothing(self):
        for a in D22.accesses():
            assert not set_contains(0, a, D22)

    def test_insert(self):
        assert set_insert(0, Access(0, 0), D22) == 1
        assert set_insert(1, Access(1, 0), D22) == 5

    def test_insert_idempotent(self):
        assert set_insert(5, Access(0, 0), D22) == 5

    def test_insert_never_clears_bits(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randrange(D22.num_sets)
            a = Access(rng.randrange(2), rng.randrange(2))
            k2 = set_insert(k, a, D22)
            assert k2 & k == k
            assert set_contains(k2, a, D22)


class TestDims:
    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            ModelDims(0, 2)
        with pytest.raises(ValueError):
            ModelDims(2, 0)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            ModelDims(4, 4)

    def test_capacity_cap_is_twelve_bits(self):
        assert ModelDims(3, 4).num_states == 2 * (1 << 12) * 13
        with pytest.raises(CapacityError, match="cap of 12"):
            ModelDims(1, 13)


class TestEnumeration:
    def test_state_counts(self):
        assert D22.num_states == 160
        assert ModelDims(1, 1).num_states == 8

    @pytest.mark.parametrize("nu,nr", [(2, 2), (3, 2)])
    def test_bijection_exhaustive(self, nu, nr):
        dims = ModelDims(nu, nr)
        seen = set()
        for i in range(dims.num_states):
            s = dims.index_state(i)
            assert dims.state_index(s) == i
            seen.add(s)
        assert len(seen) == dims.num_states

    def test_ordering(self):
        states = all_states(D22)
        # emergency-major: first half calm, second half alert
        assert all(s.emergency is Emergency.CALM for s in states[:80])
        assert all(s.emergency is Emergency.ALERT for s in states[80:])
        # the empty request sorts last within each granted set
        assert states[0] == State(Emergency.CALM, 0, Access(0, 0))
        assert states[4] == State(Emergency.CALM, 0, None)
        assert states[5] == State(Emergency.CALM, 1, Access(0, 0))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            D22.index_state(160)
        with pytest.raises(ValueError):
            D22.state_index(State(Emergency.CALM, 16, None))

    @pytest.mark.parametrize("user, resource", [(2, 0), (0, 2), (-1, 0)])
    def test_request_out_of_range(self, user, resource):
        # unchecked, (2, 0) would read bit 4, the empty request's row, and
        # (0, 2) bit 2, bob's request for low
        with pytest.raises(ValueError, match=r"access .* out of range for ModelDims"):
            D22.state_index(State(Emergency.CALM, 0, Access(user, resource)))
