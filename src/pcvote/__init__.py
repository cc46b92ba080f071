"""pcvote: an exact-arithmetic workbench for randomized social choice.

Profiles of strict rankings go in; lotteries over alternatives come out.
Everything downstream of a ballot — majority margins, lottery extensions
(PC, PC1, SD), probabilistic voting rules, dominance and efficiency
oracles, axiom checkers, and a bundled suite of worked examples — runs on
`fractions.Fraction`, so every answer is exact and reproducible.
"""

from .model import (
    AlternativeSet,
    ApplicabilityError,
    DomainError,
    InternalError,
    Lottery,
    MarginMatrix,
    Profile,
    Ranking,
    Tally,
    UnknownAlternativeError,
    absolute_winner,
    alternative_set,
    condorcet_winner,
    majority_margin,
    margin_matrix,
    margin_tally,
    never_bottom_set,
    pareto_dominated_set,
    profile,
    ranking,
    relabel,
    remove_voter,
    top_bottom_tally,
    top_count,
    top_counts,
    top_tally,
    weak_condorcet_winners,
)
from .extensions import (
    ComparisonOutcome,
    Extension,
    compare,
    dominates,
    pc1_compare,
    pc_compare,
    pc_score,
    pc_weights,
    sd_compare,
)
from .ratlp import Constraint, IntRowProgram, LinearProgram, LpOutcome, LpStatus, lp_solve
from .rules import (
    RULES,
    SocialDecisionScheme,
    condorcet_uniform,
    f1,
    f2,
    get_rule,
    is_maximal_lottery,
    maximal_lottery,
    ml,
    rd,
)
from .efficiency import (
    DominanceCertificate,
    EfficiencyNotion,
    ImprovementPath,
    PathTermination,
    find_dominator,
    improvement_path,
    is_efficient,
    m3_efficiency_certificate,
    mass_shift_perturbation,
    pc1_find_dominator,
)
from .axioms import (
    AXIOMS,
    AxiomReport,
    Decisiveness,
    EnumerationBudgetError,
    ManipulationWitness,
    Mode,
    Verdict,
    all_rankings,
    axiom,
    check_axiom_on_profile,
    check_cancellation,
    check_decisiveness,
    check_efficiency,
    check_participation,
    check_symmetry,
    count_profiles,
    enumerate_profiles,
    exhaustive_scan,
    find_manipulation,
)
from .paperlab import (
    Bench,
    FactResult,
    Fixture,
    NEGATIVE_CONTROLS,
    SuiteReport,
    fixture,
    fixture_names,
    fixture_profile,
    verify_paper_suite,
    weak_cw_family,
)
from .profilefmt import (
    ParseError,
    format_lottery,
    format_profile,
    parse_lottery,
    parse_profile,
)

__version__ = "0.1.0"
