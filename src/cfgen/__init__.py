"""Exact counterfactual generation for toy autoregressive token models.

Small finite causal models, toy token models with temperature / top-k /
top-p decoding, four counterfactual semantics (resampling, max-perturbation
noise reuse, inverse-transform noise reuse, and the exact closeness-biased
distribution), plus a brute-force verification harness for the claims that
tie them together.
"""

from .dist import DistTable, max_abs_diff, tvd
from .errors import CfgenError, EnumerationCapError, InputError, ModelError
from .nondet import (
    DEFAULT_ENUM_CAP,
    CausalGraph,
    Cpt,
    NondetModel,
    ValidationReport,
    VarSpec,
    VerificationReport,
    World,
    check_simple_semantics,
    counterfactual_case_prob,
    counterfactual_dist,
    counterfactual_dist_cases,
    evidence_update,
    joint_prob,
    model_from_json,
    model_to_json,
    validate_model,
)
from .detscm import (
    BinaryCfQuery,
    BoundsResult,
    CanonicalBinarySCM,
    DetSCM,
    Interval,
    counterfactual_bounds_binary,
    det_conditional,
    det_counterfactual,
    exogenize,
    positivity,
    simple_binary_answer,
    to_nondet_when_u_irrelevant,
)
from .tokenlm import (
    EMPTY,
    SamplingParams,
    TokenSeq,
    ToyLM,
    Vocab,
    compile_to_nondet,
    lm_from_json,
    lm_to_json,
    sample_output,
    seq_dist,
    zero_temp_fn,
)
from .generators import (
    CfQuery,
    FactualTrace,
    NoiseRecord,
    StabilityReport,
    excluded_tokens,
    gumbel_cf_sample,
    gumbel_factual_run,
    gumbel_posterior_noise,
    its_cf_sample,
    its_factual_run,
    its_posterior_noise,
    simple_cf_dist,
    simple_cf_sample,
    stability_check,
    stable_cf_dist,
    stable_step_dist,
    trace_from_json,
    trace_to_json,
)
from .oracle import (
    empirical_dist,
    enumerate_worlds,
    random_nondet_model,
    random_table_lm,
    random_u_independent_scm,
    sweep_det_nondet_equivalence,
    verify_canonical_binary,
    verify_compiled_simple_semantics,
    verify_det_nondet_equivalence,
    verify_gumbel_stability,
    verify_zero_temperature,
)
from .seeding import derive_seed, make_rng

__version__ = "0.1.0"
