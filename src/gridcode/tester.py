"""The local low-degree test: restrict to k variables, read all 2^k values,
accept iff the restricted function has degree at most d.

Completeness is one-sided (degree-<=d inputs always pass) and the query count
is exactly 2^k per run.  The theoretical parameter regime ties k, epsilon_1,
ell and epsilon_0 together; it is astronomically conservative, so desk-scale
profiles with small k are the default for experiments.  With a desk-scale k
only completeness and query complexity are guaranteed; soundness is measured
empirically.

The input f is read only through ``f.values_at(masks)`` (see ``cube``), so a
``CubeFunction`` table and a ``poly.CorruptedPoly`` oracle give the same runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cube import CubeFunction, restriction_query_masks
from .poly import from_truth_table
from .rand import derive_rng
from .restrict import sample_restriction_recursive


def entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x), for 0 < x < 1."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"entropy is defined on (0, 1), got {x}")
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class TesterParams:
    """Degree d and reduced dimension k, plus the theoretical parameters
    (multiplier M, thresholds epsilon_1 >= epsilon_0, level count ell) when
    constructed in the faithful regime."""

    d: int
    k: int
    M: int | None = None
    eps1: float | None = None
    eps0: float | None = None
    ell: int | None = None

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("degree must be non-negative")
        if self.k <= self.d:
            raise ValueError(
                f"need k > d so distinct codewords differ twice on the small cube"
                f" (got k={self.k}, d={self.d})"
            )

    @classmethod
    def desk(cls, d: int, k: int | None = None) -> "TesterParams":
        """Small-k profile for tractable experiments (default k = d + 2)."""
        return cls(d=d, k=k if k is not None else d + 2)

    @classmethod
    def faithful(cls, d: int, M: int) -> "TesterParams":
        """The full parameter regime: k = M*d, eps1 = (4C 2^{k H(1/M)})^{-40}
        with the absolute constant C = 1, ell = ceil(log2(2/eps1)),
        eps0 = eps1/(100 ell).

        Requires H(1/M) < 1/20 and k >= 100 log2(2/eps1); rejects M that
        violate either constraint.
        """
        if d < 1:
            raise ValueError("faithful profile needs d >= 1")
        if M < 2:
            raise ValueError("multiplier must be at least 2")
        h = entropy(1.0 / M)
        if not h < 1.0 / 20.0:
            raise ValueError(f"H(1/M) = {h:.4f} must be below 1/20; increase M")
        k = M * d
        eps1 = 1.0 / (4.0 * 2.0 ** (k * h)) ** 40
        ell = math.ceil(math.log2(2.0 / eps1))
        if k < 100 * math.log2(2.0 / eps1):
            raise ValueError("k must be at least 100 log2(2/eps1); increase M")
        eps0 = eps1 / (100.0 * ell)
        return cls(
            d=d,
            k=k,
            M=M,
            eps1=eps1,
            eps0=eps0,
            ell=ell,
        )

    @property
    def queries_per_run(self) -> int:
        return 1 << self.k


@dataclass(frozen=True)
class TestTranscript:
    """What a single run read and decided: the 2^k query masks, indexed by
    the point y of the small cube, and the verdict.  The masks determine the
    restriction: ``query_masks[0]`` is its shift mask, and
    ``query_masks[1 << j] ^ query_masks[0]`` is the mask of bucket j."""

    query_masks: tuple[int, ...]
    accepted: bool

    @property
    def query_count(self) -> int:
        return len(self.query_masks)


def run_test_once(f: CubeFunction, params: TesterParams, rng) -> TestTranscript:
    """One run: sample the recursive restriction, read the whole restricted
    table (exactly 2^k oracle queries) and check its degree exactly."""
    if f.n <= params.k:
        raise ValueError(f"need n > k, got n={f.n}, k={params.k}")
    masks = restriction_query_masks(sample_restriction_recursive(f.n, params.k, rng))
    restricted = CubeFunction(params.k, f.field, f.values_at(masks))
    accepted = from_truth_table(restricted).degree() <= params.d
    return TestTranscript(tuple(masks), accepted)


def amplified_test(f: CubeFunction, params: TesterParams, t: int, rng) -> bool:
    """Accept iff all t independent runs accept (query count t * 2^k)."""
    if t < 1:
        raise ValueError("repetition count must be at least 1")
    return all(run_test_once(f, params, rng).accepted for _ in range(t))


@dataclass(frozen=True)
class RejectionEstimate:
    trials: int
    rejections: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials

    @property
    def stderr(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.trials)


def estimate_rejection_probability(
    f: CubeFunction, params: TesterParams, trials: int, rng
) -> RejectionEstimate:
    """Monte Carlo rejection frequency with binomial standard error.

    Trial i runs on an RNG derived from (master seed, i), where the master
    seed is drawn once from ``rng``; results do not depend on trial order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = rng.getrandbits(63)
    rejections = 0
    for i in range(trials):
        if not run_test_once(f, params, derive_rng(master, i)).accepted:
            rejections += 1
    return RejectionEstimate(trials, rejections)
