"""Synthesis and execution of opacity-enforcing edit functions for modular
discrete-event systems.

The pipeline: model components as nondeterministic automata with secret
states, abstract them by opacity-preserving equivalences, build per-component
three-player observers, encode the edit game as a supervisory-control problem
under a consecutive-erasure budget, compute the supremal controllable
nonblocking supervisor, and execute its edit decisions event by event.
"""

from .abstraction import (
    AbstractionBundle,
    abstract_component,
    bisimulation_partition,
    opaque_bisimulation_partition,
    opaque_observation_equivalence_partition,
)
from .automata import (
    EPSILON,
    TAU,
    Automaton,
    Event,
    InvalidAutomaton,
    Partition,
    State,
    compose_all,
    deterministic_isomorphic,
    erasure_symbol,
    quotient,
)
from .constraint import ConstraintSpec, build_constraint_automaton, constraint_alphabet
from .demo import demo_composed, demo_g1, demo_g2, demo_pair
from .documents import (
    DocumentError,
    parse_automaton,
    parse_document,
    serialize_automaton,
    serialize_document,
)
from .dot import export_dot
from .estimation import (
    Observer,
    OpacityReport,
    check_current_state_opacity,
    desired_observer,
    determinize,
    unobservable_reach,
)
from .oracle import (
    RandomSpec,
    SafetyReport,
    check_desired_observer_sync,
    check_modular_inclusion,
    check_observer_sync,
    check_private_safety,
    check_supervisor_equals_aes,
    check_tpo_abstraction,
    random_pair,
    random_system,
    run_suite,
)
from .runtime import POLICIES, Session, StepError, StepResult, open_session, session_trace, step
from .synthesis import (
    ModularEditStructure,
    ProductPlant,
    product_plant,
    supremal_controllable_nonblocking,
    synthesize_modular_edit_structure,
)
from .tpo import (
    Tpo,
    build_largest_tpo,
    check_complete,
    constrain_erasures,
    largest_tpo,
    prune_to_aes,
)
from .transform import (
    DecoratedEvent,
    TransformedAutomaton,
    parse_decorated,
    run_label,
    transform_modular,
    transform_monolithic,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractionBundle",
    "Automaton",
    "ConstraintSpec",
    "DecoratedEvent",
    "DocumentError",
    "EPSILON",
    "Event",
    "InvalidAutomaton",
    "ModularEditStructure",
    "Observer",
    "OpacityReport",
    "POLICIES",
    "Partition",
    "ProductPlant",
    "RandomSpec",
    "SafetyReport",
    "Session",
    "State",
    "StepError",
    "StepResult",
    "TAU",
    "Tpo",
    "TransformedAutomaton",
    "abstract_component",
    "bisimulation_partition",
    "build_constraint_automaton",
    "build_largest_tpo",
    "check_complete",
    "check_current_state_opacity",
    "check_desired_observer_sync",
    "check_modular_inclusion",
    "check_observer_sync",
    "check_private_safety",
    "check_supervisor_equals_aes",
    "check_tpo_abstraction",
    "compose_all",
    "constrain_erasures",
    "constraint_alphabet",
    "demo_composed",
    "demo_g1",
    "demo_g2",
    "demo_pair",
    "desired_observer",
    "determinize",
    "deterministic_isomorphic",
    "erasure_symbol",
    "export_dot",
    "largest_tpo",
    "opaque_bisimulation_partition",
    "opaque_observation_equivalence_partition",
    "open_session",
    "parse_automaton",
    "parse_decorated",
    "parse_document",
    "product_plant",
    "prune_to_aes",
    "quotient",
    "random_pair",
    "random_system",
    "run_label",
    "run_suite",
    "serialize_automaton",
    "serialize_document",
    "session_trace",
    "step",
    "supremal_controllable_nonblocking",
    "synthesize_modular_edit_structure",
    "transform_modular",
    "transform_monolithic",
    "unobservable_reach",
]
