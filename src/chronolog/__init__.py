"""chronolog: a DatalogMTL reasoning engine.

Parses metric temporal Datalog programs, classifies their termination
behavior, and materializes finite representations (finite, eventually
constant, or eventually periodic) of their possibly infinite models for
the forward-propagating fragment.
"""

from .errors import (
    CapExceeded,
    ChronologError,
    CycleCapExceeded,
    InputError,
    NotForwardPropagating,
    ParseError,
    StepCapExceeded,
    WindowCapExceeded,
)
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    Time,
    lcm_rationals,
    parse_interval,
    parse_rational,
    to_time,
)
from .reasoner import (
    Model,
    Pattern,
    PeriodicModel,
    RuleGroup,
    backward_slice,
    check_horizon,
    group_and_sort,
    max_time_point,
    naive_fixpoint_bounded,
    reason,
)
from .syntax import (
    Atom,
    Bottom,
    BoxMinus,
    BoxPlus,
    Constant,
    DiamondMinus,
    DiamondPlus,
    Fact,
    Literal,
    Program,
    Rule,
    Since,
    Top,
    Until,
    Variable,
    ground,
    parse_database,
    parse_fact,
    parse_program,
    program_text,
    to_normal_form,
)

__version__ = "0.1.0"

# The names of ``analysis``, loaded on first use: ``reason``, ``query``,
# ``check`` and ``oracle`` never read it, so importing the package does
# not compile it.
_ANALYSIS = frozenset({
    "Cycle",
    "DepGraph",
    "Edge",
    "FragmentFlags",
    "FragmentReport",
    "RuleClass",
    "classify_rules",
    "dependency_graph",
    "fragment_checks",
    "max_applications",
    "pattern_length",
    "simple_cycles",
})


def __getattr__(name: str):
    if name in _ANALYSIS:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
