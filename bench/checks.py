"""Output checkers for the benchmark, built apart from the program.

The model is rebuilt here from its definition with numpy: states are
ordered (status, granted set, request) with the request fastest and the
empty request last, so state (e, k, r) sits at index (e * 2^B + k) * (B + 1)
+ r for B = users * resources access bits.  Exact values come from Howard
policy iteration with a sparse direct solve, not from value iteration or
the simplex.  Each checker takes one operation's captured output and
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

# allow is chosen only when it beats deny by more than this (the program's rule)
TIE_TOL = 1e-9

CLASSIC_USERS = ("alice", "bob")
CLASSIC_RESOURCES = ("low", "high")
CLASSIC_ACCESS_REWARD = ((6.0, 10.0), (4.0, -10.0))
CLASSIC_RESOURCE_REWARD = (0.0, -20.0)
BOB_HIGH = 3  # access bit of (bob, high): user 1 * 2 resources + resource 1

# Decision values from the no-grants states, as printed in the paper.
# Keys are (status, action); columns are (alice,low) (alice,high) (bob,low) (bob,high).
TABLE_1 = {
    ("calm", "deny"): [0, 0, 0, 0],
    ("calm", "allow"): [6, 10, 4, -10],
    ("alert", "deny"): [-20, -20, -20, -20],
    ("alert", "allow"): [-14, 10, -16, -10],
}
TABLE_2_UNIQUE = {
    ("calm", "deny"): [-2, -2, -2, -2],
    ("calm", "allow"): [4, 10, 2, -10],
    ("alert", "deny"): [-20, -20, -20, -20],
    ("alert", "allow"): [-14, 10, -16, -10],
}
TABLE_2_ONCE = {
    ("calm", "deny"): [2.63, 2.63, 2.63, 2.63],
    ("calm", "allow"): [7.58, 14.15, 6.41, -1.59],
    ("alert", "deny"): [-23.54, -23.54, -23.54, -23.54],
    ("alert", "allow"): [-15.54, 14.15, -16.70, -1.59],
}
TABLE_2_ALL = {
    ("calm", "deny"): [34.80, 34.80, 34.80, 34.80],
    ("calm", "allow"): [40.80, 55, 38.80, 35],
    ("alert", "deny"): [4.55, 4.55, 4.55, 4.55],
    ("alert", "allow"): [10.55, 55, 8.55, 35],
}
# builtin name -> (table, tolerance)
PAPER_TABLES = {
    "table1": (TABLE_1, 1e-9),
    "table2_unique": (TABLE_2_UNIQUE, 0.005),
    "table2_once": (TABLE_2_ONCE, 0.01),
    "table2_all": (TABLE_2_ALL, 0.005),
}
# modified variant, (calm, no grants, bob-high): (deny, deny tol, allow, allow tol)
MODIFIED_BOB_HIGH = {
    "modified_unique": (-105.26, 0.01, -10.0, 1e-6),
    "modified_once": (-32.35, 0.01, -1.59, 0.01),
}
# crossover of (bob, high) under each behaviour: (low, high, low inclusive)
CROSSOVER_RANGES = {
    "unique": (0.5 - 1e-3, 0.5 + 1e-3, True),
    "once": (0.18, 0.20, True),
    "all": (0.09, 0.10, False),
}
CROSSOVER_WIDTH = 1e-4


@dataclass(frozen=True)
class Model:
    """The parameters of one access control decision process."""

    users: tuple[str, ...]
    resources: tuple[str, ...]
    access_reward: tuple[tuple[float, ...], ...]  # [user][resource]
    resource_reward: tuple[float, ...]
    beta: float
    behavior: str  # unique | once | all
    variant: str  # eps_zero | eps_accrues
    calm_to_alert: float
    alert_to_alert: float

    @property
    def bits(self) -> int:
        return len(self.users) * len(self.resources)

    @property
    def num_states(self) -> int:
        return 2 * (1 << self.bits) * (self.bits + 1)

    def index(self, emergency: int, granted, request):
        """State index; request == bits is the empty request."""
        return (emergency * (1 << self.bits) + granted) * (self.bits + 1) + request

    @classmethod
    def from_dict(cls, d: dict) -> "Model":
        """Inverse of dataclasses.asdict after a JSON round trip."""
        return cls(
            tuple(d["users"]), tuple(d["resources"]),
            tuple(tuple(row) for row in d["access_reward"]), tuple(d["resource_reward"]),
            d["beta"], d["behavior"], d["variant"], d["calm_to_alert"], d["alert_to_alert"],
        )

    def with_calm_to_alert(self, p: float) -> "Model":
        return replace(self, calm_to_alert=p)


def classic_model(name: str) -> Model:
    """The paper's two-user, two-resource example, by builtin name."""
    if name == "table1":
        beta, behavior, variant, c2a, a2a = 0.0, "unique", "eps_zero", 0.0, 1.0
    else:
        family, behavior = name.split("_")
        variant = "eps_zero" if family == "table2" else "eps_accrues"
        beta, c2a, a2a = 0.9, 0.1, 1.0
    return Model(
        CLASSIC_USERS, CLASSIC_RESOURCES, CLASSIC_ACCESS_REWARD,
        CLASSIC_RESOURCE_REWARD, beta, behavior, variant, c2a, a2a,
    )


def render(model: Model) -> str:
    """The model as a scenario file, written without the program's renderer."""
    lines = [
        "[model]",
        "users = " + " ".join(model.users),
        "resources = " + " ".join(model.resources),
        f"beta = {model.beta}",
        f"behavior = {model.behavior}",
        f"reward_variant = {model.variant}",
        "",
        "[emergency]",
        f"calm_to_alert = {model.calm_to_alert}",
        f"alert_to_alert = {model.alert_to_alert}",
        "",
        "[reward_access]",
    ]
    for u, user in enumerate(model.users):
        for r, resource in enumerate(model.resources):
            lines.append(f"{user} {resource} = {model.access_reward[u][r]}")
    lines += ["", "[reward_resource]"]
    lines += [f"{res} = {rew}" for res, rew in zip(model.resources, model.resource_reward)]
    return "\n".join(lines) + "\n"


def build(model: Model) -> tuple[tuple[sparse.csr_matrix, sparse.csr_matrix], np.ndarray]:
    """Transition matrices (deny, allow) and expected immediate rewards q (2, n)."""
    bits, n_res = model.bits, len(model.resources)
    sets = np.arange(1 << bits)
    emerg = np.array(
        [[1 - model.calm_to_alert, model.calm_to_alert],
         [1 - model.alert_to_alert, model.alert_to_alert]]
    )
    # alert penalty of each granted set: resources that no user holds
    penalty = np.zeros((2, sets.size))
    for r in range(n_res):
        held = np.zeros(sets.size, dtype=bool)
        for u in range(len(model.users)):
            held |= (sets >> (u * n_res + r)) & 1 == 1
        penalty[1] += np.where(held, 0.0, model.resource_reward[r])

    n = model.num_states
    q = np.zeros((2, n))
    mats = []
    for act in (0, 1):
        rows, cols, vals = [], [], []
        for e in (0, 1):
            for req in range(bits + 1):
                src = model.index(e, sets, req)
                granted = sets | (1 << req) if act == 1 and req < bits else sets
                for req2, prob in _next_requests(model, granted, req):
                    for e2 in (0, 1):
                        p = emerg[e, e2] * prob
                        keep = p > 0
                        rows.append(src[keep])
                        cols.append(model.index(e2, granted[keep], req2))
                        vals.append(p[keep])
                if model.variant == "eps_zero" and req == bits:
                    continue
                gain = 0.0
                if act == 1 and req < bits:
                    gain = model.access_reward[req // n_res][req % n_res]
                q[act, src] = gain + emerg[e] @ penalty[:, granted]
        mats.append(
            sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n),
            )
        )
    return (mats[0], mats[1]), q


def _next_requests(model: Model, granted: np.ndarray, req: int):
    """(next request, probability per granted set) pairs after the decision."""
    bits = model.bits
    ones = np.ones(granted.size)
    if model.behavior == "unique" or (model.behavior == "once" and req == bits):
        return [(bits, ones)]
    if model.behavior == "all":
        return [(r2, ones / bits) for r2 in range(bits)]
    free = [((granted >> r2) & 1) == 0 for r2 in range(bits)]
    p = 1.0 / (np.sum(free, axis=0) + 1)
    return [(r2, np.where(free[r2], p, 0.0)) for r2 in range(bits)] + [(bits, p)]


def backups(mats, q: np.ndarray, beta: float, values: np.ndarray) -> np.ndarray:
    """(2, n) decision values q^a + beta * P^a V."""
    return np.stack([q[a] + beta * (mats[a] @ values) for a in (0, 1)])


def evaluate(mats, q: np.ndarray, beta: float, policy: np.ndarray) -> np.ndarray:
    """Exact values of a fixed policy: solve (I - beta P_pi) V = q_pi."""
    allow = sparse.diags(policy.astype(float))
    p_pi = sparse.diags(1.0 - policy) @ mats[0] + allow @ mats[1]
    q_pi = np.where(policy == 1, q[1], q[0])
    lhs = sparse.identity(q.shape[1], format="csc") - beta * p_pi.tocsc()
    return spsolve(lhs, q_pi)


def solve_exact(mats, q: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal values and decision values by Howard policy iteration."""
    policy = np.zeros(q.shape[1], dtype=int)
    for _ in range(100):
        values = evaluate(mats, q, beta, policy)
        dv = backups(mats, q, beta, values)
        states = np.arange(policy.size)
        better = dv[1 - policy, states] > dv[policy, states] + 1e-12 * _scale(values)
        if not better.any():
            return values, dv
        policy = np.where(better, 1 - policy, policy)
    raise RuntimeError("policy iteration did not settle in 100 steps")


class ModelCache:
    """Builds and solves each model once per process."""

    def __init__(self) -> None:
        self._built: dict[Model, tuple] = {}
        self._solved: dict[Model, tuple] = {}

    def build(self, model: Model):
        if model not in self._built:
            self._built[model] = build(model)
        return self._built[model]

    def solve(self, model: Model):
        if model not in self._solved:
            mats, q = self.build(model)
            self._solved[model] = solve_exact(mats, q, model.beta)
        return self._solved[model]


def _close(got, want, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def _scale(values: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def check_decisions(values, dv, actions, mats, q, beta, feas_tol, tight_tol) -> list[str]:
    """Values, decision values and actions against the model's Bellman rows.

    No row may be violated by more than feas_tol, and in every state the
    best row must be tight within tight_tol.
    """
    problems = []
    own_dv = backups(mats, q, beta, values)
    err = float(np.max(np.abs(own_dv - dv)))
    if err > tight_tol:
        problems.append(f"decision values differ from q + beta P V by {err:.3g}")
    slack = values - own_dv
    if slack.min() < -feas_tol:
        problems.append(f"Bellman row violated by {-slack.min():.3g}")
    loose = float(np.abs(slack.min(axis=0)).max())
    if loose > tight_tol:
        problems.append(f"a state's best Bellman row is {loose:.3g} from tight")
    expected = np.where(dv[1] > dv[0] + TIE_TOL, 1, 0)
    if not np.array_equal(np.asarray(actions), expected):
        problems.append(f"{int(np.sum(actions != expected))} decisions disagree with their values")
    return problems


def check_paper_lp(out: dict, cache: ModelCache) -> list[str]:
    """One LP solve of a builtin: paper tables, Bellman feasibility and tightness.

    out: name, values, dv, actions, grid {(status, action): [dv per access]}.
    """
    name = out["name"]
    model = classic_model(name)
    mats, q = cache.build(model)
    problems = check_decisions(
        out["values"], out["dv"], out["actions"], mats, q, model.beta, 1e-9, 1e-7
    )
    grid = out["grid"]
    for e, status in enumerate(("calm", "alert")):
        for a, action in enumerate(("deny", "allow")):
            own = out["dv"][a, model.index(e, 0, np.arange(model.bits))]
            if not np.array_equal(np.asarray(grid[(status, action)]), own):
                problems.append(f"grid row ({status}, {action}) is not read from the empty set")
    if name in PAPER_TABLES:
        table, tol = PAPER_TABLES[name]
        for key, want in table.items():
            if not _close(grid[key], want, tol):
                problems.append(f"{name} {key}: {np.round(grid[key], 4).tolist()} != paper {want}")
    elif name in MODIFIED_BOB_HIGH:
        deny, deny_tol, allow, allow_tol = MODIFIED_BOB_HIGH[name]
        got_deny, got_allow = grid[("calm", "deny")][BOB_HIGH], grid[("calm", "allow")][BOB_HIGH]
        if abs(got_deny - deny) > deny_tol or abs(got_allow - allow) > allow_tol:
            problems.append(f"{name} bob-high ({got_deny:.4f}, {got_allow:.4f}) != ({deny}, {allow})")
    else:  # modified_all: concrete requests never reach the empty one
        _, table2_all_dv = cache.solve(classic_model("table2_all"))
        concrete = np.arange(model.num_states) % (model.bits + 1) != model.bits
        gap = float(np.max(np.abs(out["dv"][:, concrete] - table2_all_dv[:, concrete])))
        if gap > 1e-6:
            problems.append(f"modified_all concrete-request values move by {gap:.3g}")
    return problems


def check_crossover(out: dict, cache: ModelCache) -> list[str]:
    """One sweep of the calm-to-alert rate: the (bob, high) crossover.

    out: behavior, access (user, resource), root, bracket, diffs [(p, allow - deny)].
    """
    behavior = out["behavior"]
    model = classic_model(f"table2_{behavior}")
    problems = []
    if tuple(out["access"]) != (1, 1):
        problems.append(f"crossover reported for access {out['access']}, not (bob, high)")
    probs = [p for p, _ in out["diffs"]]
    if len(probs) != 101 or not _close(probs, np.linspace(0, 1, 101), 1e-12):
        problems.append("sweep grid is not 0, 0.01, ..., 1")
    root, bracket = out["root"], out["bracket"]
    if root is None:
        return problems + [f"{behavior}: no crossover found"]
    lo, hi, closed = CROSSOVER_RANGES[behavior]
    if not (lo <= root <= hi if closed else lo < root < hi):
        problems.append(f"{behavior}: crossover {root:.5f} outside [{lo}, {hi}]")
    if not bracket[0] <= root <= bracket[1] or bracket[1] - bracket[0] > CROSSOVER_WIDTH:
        problems.append(f"{behavior}: bracket {bracket} does not pin the root {root}")
    signs = []
    for p in bracket:
        _, dv = cache.solve(model.with_calm_to_alert(p))
        i = model.index(0, 0, BOB_HIGH)
        signs.append(np.sign(dv[1, i] - dv[0, i]))
    if signs[0] * signs[1] > 0:
        problems.append(f"{behavior}: allow - deny keeps its sign across {bracket}")
    if behavior == "unique":  # closed form: allow - deny = 20 q - 10
        worst = max(abs(d - (20 * p - 10)) for p, d in out["diffs"])
        if worst > 1e-7:
            problems.append(f"unique: allow - deny is {worst:.3g} from 20q - 10")
    else:
        for p, d in out["diffs"][::25]:
            _, dv = cache.solve(model.with_calm_to_alert(p))
            i = model.index(0, 0, BOB_HIGH)
            if abs(d - (dv[1, i] - dv[0, i])) > 1e-6:
                problems.append(f"{behavior}: allow - deny at {p} differs from the exact value")
    return problems


def check_solve(out: dict, model: Model, cache: ModelCache) -> list[str]:
    """One large solve and export.

    out: values, dv, actions, row_sum_error, export (path), and, for one
    operation per process, transitions and q of the compiled system.
    """
    mats, q = cache.build(model)
    values = out["values"]
    problems = check_decisions(values, out["dv"], out["actions"], mats, q, model.beta, 1e-6, 1e-6)
    exact = evaluate(mats, q, model.beta, np.asarray(out["actions"]))
    err = float(np.max(np.abs(exact - values)))
    if err > 1e-6:
        problems.append(f"values are {err:.3g} from the exact value of their own policy")
    if out["row_sum_error"] > 1e-9:
        problems.append(f"a compiled row sums to 1 +- {out['row_sum_error']:.3g}")
    if "transitions" in out:
        for a in (0, 1):
            diff = abs(out["transitions"][a] - mats[a])
            if diff.nnz and diff.max() > 1e-12:
                problems.append(f"compiled transitions of action {a} differ from the model")
        if not _close(out["q"], q, 1e-9):
            problems.append("compiled rewards differ from the model")
    return problems + check_export(out["export"], model, out)


def check_export(path, model: Model, out: dict) -> list[str]:
    """The exported value table, read back with the csv module."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[0] != ["ACMDP-VALUES v1"] or len(rows[1]) != 1 or len(rows[1][0]) != 16:
        return ["exported table lacks its header and fingerprint"]
    body = rows[2:]
    if len(body) != model.num_states:
        return [f"exported table has {len(body)} rows for {model.num_states} states"]
    if any(len(row) != 8 for row in body):
        return ["exported table has a row without 8 fields"]
    cols = list(zip(*body))
    n_res, bits = len(model.resources), model.bits
    index = np.arange(model.num_states)
    req, rest = index % (bits + 1), index // (bits + 1)
    empty = req == bits
    expect = {
        0: np.where(rest >> bits, "alert", "calm"),
        1: (rest & ((1 << bits) - 1)).astype(str),
        2: np.where(empty, "eps", np.array(model.users)[np.where(empty, 0, req // n_res)]),
        3: np.where(empty, "eps", np.array(model.resources)[req % n_res]),
        5: np.where(np.asarray(out["actions"]) == 1, "allow", "deny"),
    }
    problems = [f"exported column {c} does not match the states" for c, want in expect.items()
                if not np.array_equal(np.array(cols[c]), want)]
    for c, want in ((4, out["values"]), (6, out["dv"][0]), (7, out["dv"][1])):
        got = np.array(cols[c], dtype=float)
        if np.max(np.abs(got - want)) > 1e-9 * _scale(want):
            problems.append(f"exported column {c} does not match the solution")
    return problems


def check_lookup(out: tuple, model: Model, values: np.ndarray, dv: np.ndarray) -> list[str]:
    """One decision-point query against the solution held in memory.

    out: (query (status, granted, user, resource), answer row fields, decision).
    """
    (status, granted, user, resource), row, decision = out
    u, r = model.users.index(user), model.resources.index(resource)
    i = model.index(int(status == "alert"), granted, u * len(model.resources) + r)
    problems = []
    if tuple(row[:4]) != (status, granted, user, resource):
        problems.append(f"answer {row[:4]} is for another state than {out[0]}")
    value, dv_deny, dv_allow = row[4], row[6], row[7]
    want = (values[i], dv[0, i], dv[1, i])
    if not _close((value, dv_deny, dv_allow), want, 1e-9 * _scale(np.array(want))):
        problems.append(f"answer for state {i} differs from the solution")
    if decision != (dv_allow > dv_deny + TIE_TOL):
        problems.append(f"decision {'allow' if decision else 'deny'} contradicts its values")
    return problems
