import numpy as np
import pytest
from oracle import (
    all_states,
    immediate_reward,
    reward_emresource,
    reward_transition,
    successors,
)

from acmdp import (
    Access,
    Action,
    Emergency,
    RewardVariant,
    State,
    builtin_scenario,
)
from acmdp.dynamics import row_moves
from acmdp.rewards import reward_parts

ALICE_LOW, ALICE_HIGH = Access(0, 0), Access(0, 1)
BOB_LOW, BOB_HIGH = Access(1, 0), Access(1, 1)


@pytest.fixture(scope="module")
def table1():
    return builtin_scenario("table1")


@pytest.fixture(scope="module")
def table2():
    return builtin_scenario("table2_unique")


class TestEmresource:
    def test_alert_empty_set(self, table1):
        assert reward_emresource(table1, Emergency.ALERT, 0) == -20

    def test_calm_is_always_zero(self, table1):
        for k in range(table1.dims.num_sets):
            assert reward_emresource(table1, Emergency.CALM, k) == 0.0

    def test_alert_with_high_accessed(self, table1):
        # only (alice, high) granted: low is unaccessed but worth 0
        k = 1 << 1
        assert reward_emresource(table1, Emergency.ALERT, k) == 0.0

    def test_monotone_under_nonpositive_resource_rewards(self, table1):
        d = table1.dims
        for k in range(d.num_sets):
            base = reward_emresource(table1, Emergency.ALERT, k)
            for a in d.accesses():
                k2 = k | (1 << (a.user * d.num_resources + a.resource))
                assert reward_emresource(table1, Emergency.ALERT, k2) >= base


class TestRewardTransition:
    def test_allow_in_calm(self, table1):
        s = State(Emergency.CALM, 0, ALICE_LOW)
        s2 = State(Emergency.CALM, 1, None)
        assert reward_transition(table1, s, Action.ALLOW, s2) == 6

    def test_eps_zero_nullifies_empty_request(self, table1):
        s = State(Emergency.CALM, 0, None)
        s2 = State(Emergency.ALERT, 0, None)
        for act in (Action.DENY, Action.ALLOW):
            assert reward_transition(table1, s, act, s2) == 0.0

    def test_eps_accrues_keeps_resource_penalty(self):
        sc = builtin_scenario("modified_unique")
        assert sc.variant is RewardVariant.EPS_ACCRUES
        s = State(Emergency.CALM, 0, None)
        s2 = State(Emergency.ALERT, 0, None)
        for act in (Action.DENY, Action.ALLOW):
            assert reward_transition(sc, s, act, s2) == -20

    def test_eps_zero_everywhere_property(self, table2):
        for s in all_states(table2.dims):
            if s.request is not None:
                continue
            for act in (Action.DENY, Action.ALLOW):
                for s2, _ in successors(table2, s, act):
                    assert reward_transition(table2, s, act, s2) == 0.0


class TestRewardParts:
    @pytest.mark.parametrize("name", ["table1", "modified_unique"])
    def test_empty_request_rows_follow_the_variant(self, name):
        # under eps_zero the compile's q is E @ parts, so it is 0 on these
        # rows only if the parts are; under eps_accrues the alert penalty stays
        sc = builtin_scenario(name)
        r, _ = row_moves(sc.dims)
        empty = reward_parts(sc)[:, :, r == sc.dims.num_access_bits]
        if sc.variant is RewardVariant.EPS_ZERO:
            assert np.all(empty == 0.0)
        else:
            assert np.any(empty != 0.0)


class TestImmediateReward:
    def test_table1_bob_high_allow(self, table1):
        s = State(Emergency.CALM, 0, BOB_HIGH)
        assert immediate_reward(table1, s, Action.ALLOW) == pytest.approx(-10)

    def test_table2_alice_low_deny(self, table2):
        s = State(Emergency.CALM, 0, ALICE_LOW)
        assert immediate_reward(table2, s, Action.DENY) == pytest.approx(-2)

    def test_table2_alice_high_allow(self, table2):
        s = State(Emergency.CALM, 0, ALICE_HIGH)
        assert immediate_reward(table2, s, Action.ALLOW) == pytest.approx(10)

    def test_matches_dense_brute_force(self):
        # independent oracle: dense successor distribution dotted with dense
        # per-transition rewards over the full state product
        sc = builtin_scenario("table2_once")
        dims = sc.dims
        for s in all_states(dims):
            for act in (Action.DENY, Action.ALLOW):
                dense = {dims.state_index(s2): p for s2, p in successors(sc, s, act)}
                expected = sum(
                    dense.get(j, 0.0) * reward_transition(sc, s, act, dims.index_state(j))
                    for j in range(dims.num_states)
                )
                got = immediate_reward(sc, s, act)
                assert got == pytest.approx(expected, abs=1e-12)
