"""frvkit: exact finite random variables, information measures, Markov
triangles, and an axiom audit engine for mutual-information-like
functionals.

Probabilities are exact rationals end to end; floating point appears only
in entropy-valued outputs.  See the README for the document format and the
command-line interface.
"""

from .core import (
    FiniteRandomVariable,
    MeasurePreservingMap,
    SampleSpace,
    canonical_pair,
    canonical_product,
    canonical_variable,
    constant_variable,
    fair_coin,
    identity_map,
    joint_masses,
    joint_table,
    product_space,
    projection_map,
    pull_back,
    refinement_map,
    space,
    variable,
)
from .constructions import (
    PmfSequence,
    convex_sum,
    convex_sum_pairs,
    mixture_distribution,
    relabel,
    tag_label,
)
from .errors import (
    AlphabetMismatch,
    DocumentError,
    DomainMismatch,
    FrvError,
    InvalidBase,
    NotAPmf,
)
from .markov import (
    MediatorFunction,
    Triple,
    chain_rule_residual,
    find_mediator,
    generate_markov_triangle,
    mediator_candidates,
    verify_mediator,
    weak_functoriality_residual,
)
from .measures import (
    ConditionalKernel,
    conditional_entropy,
    conditional_kernel,
    entropy,
    joint_entropy,
    mutual_information,
)
from .axioms import (
    AuditCorpus,
    AuditResult,
    AxiomReport,
    CandidateFunctional,
    ProbeReport,
    audit,
    build_audit_corpus,
    builtin_functionals,
    characterization_probe,
    check_continuity,
    check_pullback_invariance,
    check_strong_additivity,
    check_symmetry,
    check_vacuity,
    check_weak_functoriality,
    get_functional,
)

__version__ = "0.1.0"
