"""Low-degree multilinear codes on the Boolean cube: local testing, local
decoding over small characteristic, tolerant testing, and the combinatorial
machinery behind them (bucket processes, dual witnesses, balanced-vector
spans), all with exact small-case oracles."""

from .cube import CubeFunction, apply_restriction, corrupt, distance
from .decoder import DecoderParams, balanced_set, decode_from_ball, local_decode
from .dualwitness import DualWitness, build_witness, greedy_code, verify_witness
from .errors import BudgetExceededError, CapacityError
from .field import PrimeField
from .lowerbound import HardFunction, SpanInstance, sample_hard_function, t_span_contains
from .oracle import CodeEnumeration, certify_far, exact_delta_d
from .poly import MultilinearPoly, from_truth_table, identify_variables, random_poly
from .restrict import (
    Restriction,
    UniformRestriction,
    exact_bucket_distribution,
    sample_restriction_direct,
    sample_restriction_recursive,
)
from .tester import (
    TesterParams,
    amplified_test,
    entropy,
    estimate_rejection_probability,
    run_test_once,
)
from .tolerant import TolerantParams, closest_poly_on_set, tolerant_test

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CapacityError",
    "CodeEnumeration",
    "CubeFunction",
    "DecoderParams",
    "DualWitness",
    "HardFunction",
    "MultilinearPoly",
    "PrimeField",
    "Restriction",
    "SpanInstance",
    "TesterParams",
    "TolerantParams",
    "UniformRestriction",
    "amplified_test",
    "apply_restriction",
    "balanced_set",
    "build_witness",
    "certify_far",
    "closest_poly_on_set",
    "corrupt",
    "decode_from_ball",
    "distance",
    "entropy",
    "estimate_rejection_probability",
    "exact_bucket_distribution",
    "exact_delta_d",
    "from_truth_table",
    "greedy_code",
    "identify_variables",
    "local_decode",
    "random_poly",
    "run_test_once",
    "sample_hard_function",
    "sample_restriction_direct",
    "sample_restriction_recursive",
    "t_span_contains",
    "tolerant_test",
    "verify_witness",
]
