"""Exact laboratory for discrete treasure-hunt games.

A hider places d treasures behind n doors; a searcher must reveal them all
with guesses of at most k doors, one reveal per round, losing the moment a
guess covers nothing. The package computes optimal strategies and exact
rational game values, certifies them by best response and sequence-form
linear programming, and cross-checks them by seeded simulation.
"""

from .combinatorics import (
    MULTI,
    SINGLE,
    allocation_shape,
    count_allocations,
    enumerate_allocations,
    enumerate_partitions,
    partition_weight,
)
from .errors import (
    AdversarialRevealError,
    BudgetExceededError,
    DoorBudgetError,
    ExceedsUnitError,
    InternalError,
    InvalidTableError,
    MissingDiagramError,
    TreasureHuntError,
)
from .game import (
    ADVERSARIAL,
    LOWEST_INDEX,
    UNIFORM_DOORS,
    UNIFORM_TREASURES,
    GameConfig,
)
from .montecarlo import (
    McReport,
    compare_to_exact,
    derive_seed,
    run_mc,
)
from .solver import (
    EqualizingReport,
    ValueReport,
    all_in_one_bound,
    closed_form_value,
    deterministic_win_set,
    evaluate_exact,
    evaluate_under_reveal,
    hider_best_response_value,
    counting_upper_bound,
    per_allocation_values,
    searcher_best_response_value,
    sequence_form_value,
    verify_equalizing,
)
from .staytables import (
    StayTable,
    min_scalable_doors,
    q_one_find,
    scaled_stay_table,
    stay_probability,
)
from .strategies import (
    HiderStrategy,
    SearcherStrategy,
    all_in_one_hider,
    fresh_doors_searcher,
    load_hider_json,
    mimic_searcher,
    scaled_searcher,
    stay_table_searcher,
    uniform_hider,
)

__version__ = "0.1.0"
