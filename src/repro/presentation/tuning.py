"""Bandwidth tuning variables (paper §4.4, first option).

"If the above parameters are measurable, then we can add corresponding
'tuning' variables into the preference model ... and to condition on them
the preferential ordering of the presentation alternatives for various
bandwidth/buffer consuming components. Such model extension can be done
automatically, according to some predefined ordering templates."

:func:`install_bandwidth_tuning` is that automatic extension: it adds one
``tuning.bandwidth`` root variable (high/medium/low) and, for every
primitive component with a presentation heavier than *threshold*, rewires
its CPT so that under reduced bandwidth the author's order is stably
re-partitioned to put affordable presentations first. The author's
original preferences remain the high-bandwidth rows verbatim.
"""

from __future__ import annotations

from repro.errors import CPNetError
from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument

#: Reserved variable name; MultimediaDocument treats the ``tuning.`` prefix
#: as non-component (like operation variables).
TUNING_VARIABLE = "tuning.bandwidth"

BANDWIDTH_HIGH = "high"
BANDWIDTH_MEDIUM = "medium"
BANDWIDTH_LOW = "low"
_LEVELS = (BANDWIDTH_HIGH, BANDWIDTH_MEDIUM, BANDWIDTH_LOW)

#: Default byte budgets per presentation at each constrained level.
DEFAULT_MEDIUM_BUDGET = 128 * 1024
DEFAULT_LOW_BUDGET = 16 * 1024


def level_for_bandwidth(
    bits_per_second: float,
    medium_below: float = 4_000_000,
    low_below: float = 512_000,
) -> str:
    """Map a measured link bandwidth to a tuning level."""
    if bits_per_second < low_below:
        return BANDWIDTH_LOW
    if bits_per_second < medium_below:
        return BANDWIDTH_MEDIUM
    return BANDWIDTH_HIGH


def budget_order(
    component: PrimitiveMultimediaComponent, order: tuple[str, ...], budget: int
) -> tuple[str, ...]:
    """Stable re-partition of an author order under a byte budget.

    Presentations within budget keep their author-given relative order and
    move to the front; over-budget ones follow, cheapest first.
    """
    affordable = [v for v in order if component.presentation_size(v) <= budget]
    heavy = sorted(
        (v for v in order if component.presentation_size(v) > budget),
        key=lambda v: (component.presentation_size(v), order.index(v)),
    )
    return tuple(affordable + heavy)


def install_bandwidth_tuning(
    document: MultimediaDocument,
    threshold: int = DEFAULT_MEDIUM_BUDGET,
    medium_budget: int = DEFAULT_MEDIUM_BUDGET,
    low_budget: int = DEFAULT_LOW_BUDGET,
) -> tuple[str, ...]:
    """Add the tuning variable and condition heavy components on it.

    Returns the paths of the components that were re-conditioned. For each
    such component every existing CPT rule ``cond : order`` is kept (it
    answers for high bandwidth) and joined by two more-specific rows::

        cond ∧ bandwidth=medium : budget_order(order, medium_budget)
        cond ∧ bandwidth=low    : budget_order(order, low_budget)

    Idempotence guard: raises if the tuning variable is already installed.
    """
    net = document.network
    if TUNING_VARIABLE in net:
        raise CPNetError(f"{TUNING_VARIABLE!r} is already installed")
    net.add_variable(TUNING_VARIABLE, _LEVELS, description="measured link bandwidth")
    net.add_rule(TUNING_VARIABLE, {}, _LEVELS)  # unconstrained: assume high
    tuned: list[str] = []
    for path, component in document.component_index().items:
        if not isinstance(component, PrimitiveMultimediaComponent):
            continue
        heaviest = max(component.presentation_size(v) for v in component.domain)
        if heaviest <= threshold:
            continue
        cpt = net.cpt(path)
        old_rules = list(cpt.rules)
        net.set_parents(path, cpt.parent_names + (TUNING_VARIABLE,))
        for rule in old_rules:
            condition = dict(rule.condition)
            net.add_rule(path, condition, rule.order)  # high-bandwidth rows
            net.add_rule(
                path,
                {**condition, TUNING_VARIABLE: BANDWIDTH_MEDIUM},
                budget_order(component, rule.order, medium_budget),
            )
            net.add_rule(
                path,
                {**condition, TUNING_VARIABLE: BANDWIDTH_LOW},
                budget_order(component, rule.order, low_budget),
            )
        tuned.append(path)
    return tuple(tuned)
