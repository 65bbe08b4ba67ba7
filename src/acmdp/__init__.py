"""Risk-aware access control decisions via discounted Markov decision processes."""

from .bellman import (
    BellmanSystem,
    compile_system,
    decision_values,
    validate_stochastic,
    verify_solution,
)
from .config import (
    BUILTIN_NAMES,
    ScenarioParseError,
    builtin_scenario,
    parse_scenario,
    render_scenario,
    scenario_fingerprint,
)
from .dynamics import RequestBehavior
from .experiments import SweepSpec, run_sweep, self_check, sweep_csv
from .policy import (
    PolicyMap,
    Solution,
    export_values,
    extract_policy,
    import_values,
    policy_evaluate,
    policy_iterate,
    solve_scenario,
)
from .rewards import RewardVariant, Scenario
from .states import (
    Access,
    Action,
    CapacityError,
    Emergency,
    ModelDims,
    State,
    access_bit_index,
    set_contains,
    set_insert,
)
from .value_iteration import ConvergenceError, value_iterate

__version__ = "0.1.0"
