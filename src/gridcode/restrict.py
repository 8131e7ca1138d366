"""Random variable-identification restrictions and the bucket (set-union) process.

A restriction collapses n cube variables to k by mapping each variable i to an
output variable phi(i), optionally complemented: x_i(y) = y_{phi(i)} xor a_i.
Three samplers produce the same bucket-size distribution:

  * the recursive process (repeatedly identify a random pair, then relabel),
  * the direct parent process (each index above k picks a uniform earlier parent),
  * the cycle sampler (arrange all elements on a cycle entered at a uniform
    special element; each special element owns the arc up to the next special).

``BUCKET_PROCESSES`` gives each its sizes sampler and exact enumerator, so the
equivalence can be checked as an identity of rational distributions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import BudgetExceededError


class Restriction:
    """A map phi:[n]->[k] plus complement mask, all indices 0-based.

    ``var_to_output[i]`` is phi(i); bit i of ``shift_mask`` is the complement
    bit a_i.  Every output variable must have at least one preimage (each
    bucket contains its seed); ``UniformRestriction`` relaxes that.
    """

    require_full_buckets = True

    def __init__(self, n: int, k: int, var_to_output, shift_mask: int):
        if n < 1 or k < 1:
            raise ValueError("dimensions must be positive")
        var_to_output = tuple(var_to_output)
        if len(var_to_output) != n:
            raise ValueError(f"expected {n} output assignments, got {len(var_to_output)}")
        if any(not 0 <= j < k for j in var_to_output):
            raise ValueError("output index out of range")
        if not 0 <= shift_mask < (1 << n):
            raise ValueError("shift mask out of range")
        if self.require_full_buckets:
            seen = set(var_to_output)
            if len(seen) != k:
                missing = sorted(set(range(k)) - seen)
                raise ValueError(f"empty buckets for outputs {missing}")
        self.n = n
        self.k = k
        self.var_to_output = var_to_output
        self.shift_mask = shift_mask

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, "
            f"phi={self.var_to_output}, shift={self.shift_mask:0{self.n}b})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, Restriction)
            and other.n == self.n
            and other.k == self.k
            and other.var_to_output == self.var_to_output
            and other.shift_mask == self.shift_mask
        )

    def buckets(self) -> list[list[int]]:
        """Preimage classes of phi, indexed by output variable."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, j in enumerate(self.var_to_output):
            out[j].append(i)
        return out

    def bucket_sizes(self) -> tuple[int, ...]:
        """Sorted sizes of the preimage classes."""
        return tuple(sorted(len(b) for b in self.buckets()))


class UniformRestriction(Restriction):
    """Restriction sampled with i.i.d. uniform phi; buckets may be empty."""

    require_full_buckets = False


def sample_restriction_recursive(n: int, k: int, rng) -> Restriction:
    """Sample a restriction by n-k random pairwise identifications.

    Each round picks distinct surviving variables (kept, removed) and a bit,
    substituting x_removed := bit xor x_kept.  A uniform bijection onto the
    outputs and a uniform complement per survivor finish the job.  The random
    calls are those of ``rng.sample(survivors, 2)`` and ``rng.getrandbits(1)``
    per round, then ``rng.shuffle`` of the outputs and one ``getrandbits(1)``
    per survivor.
    """
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    randbelow = rng._randbelow
    getrandbits = rng.getrandbits
    survivors = list(range(n))
    steps = []  # (kept, removed, flip) per round
    for m in range(n, k, -1):
        # The positions rng.sample(survivors, 2) picks, from the same
        # randbelow calls as CPython's Random.sample: up to 21 elements it
        # draws from a pool whose vacancy is refilled by the last element;
        # above that it redraws the second position until it differs.
        i = randbelow(m)
        if m <= 21:
            j = randbelow(m - 1)
            if j == i:
                j = m - 1
        else:
            j = randbelow(m)
            while j == i:
                j = randbelow(m)
        kept = survivors[i]
        steps.append((kept, survivors.pop(j), getrandbits(1)))

    targets = list(range(k))
    rng.shuffle(targets)
    phi = [0] * n
    shift = 0
    for s, t in zip(survivors, targets):
        phi[s] = t
        shift |= getrandbits(1) << s
    # A removed variable maps where its kept partner maps, with the step's
    # flip added; the partner was removed later if at all, so undoing the
    # steps last to first resolves it first.
    for kept, removed, flip in reversed(steps):
        phi[removed] = phi[kept]
        shift |= (((shift >> kept) & 1) ^ flip) << removed
    return Restriction(n, k, phi, shift)


def direct_restriction(n: int, k: int, shift_bits, perm, parents) -> Restriction:
    """Build the parent-process restriction from explicit choices.

    ``perm[pos]`` is the variable at chain position pos; ``parents[pos]``
    (for pos >= k) is a position < pos; ``shift_bits[pos]`` is the complement
    used when position pos is substituted (or mapped to its output, pos < k).
    Position pos < k terminates at output pos.
    """
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    # A chain's complement is the xor of its positions' bits; a parent comes
    # before its child, so one forward pass finishes every parent first.
    owner = _parent_owners(n, k, parents)
    bits = list(shift_bits)
    for pos in range(k, n):
        bits[pos] ^= bits[parents[pos]]
    phi = [0] * n
    shift = 0
    for pos, var in enumerate(perm):
        phi[var] = owner[pos]
        shift |= bits[pos] << var
    return Restriction(n, k, phi, shift)


def sample_restriction_direct(n: int, k: int, rng) -> Restriction:
    """Sample the non-iterative form: uniform complements, uniform variable
    order, and an independent uniform parent below each position above k."""
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    shift_bits = [rng.getrandbits(1) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return direct_restriction(n, k, shift_bits, perm, _sample_parents(n, k, rng))


def _check_buckets(r: int, k: int) -> None:
    """The one argument check of every bucket process: r >= k >= 1."""
    if not r >= k >= 1:
        raise ValueError(f"need r >= k >= 1, got r={r}, k={k}")


def _cycle_sizes(k: int, entry: int, rest) -> list[int]:
    """Bucket sizes, indexed by seed, of the cycle order [entry, *rest]: each
    seed (element < k) opens its bucket, which every element up to the next
    seed joins."""
    sizes = [0] * k
    current = entry
    sizes[entry] = 1
    for element in rest:
        if element < k:
            current = element
        sizes[current] += 1
    return sizes


def sample_buckets_cycle_sizes(r: int, k: int, rng) -> tuple[int, ...]:
    """Cycle sampler: uniform entry special element, uniform order of the rest.

    Walking the cycle from the entry point, each special element (0..k-1)
    opens the bucket that collects the non-special elements up to the next
    special one.  Returns the sorted sizes.
    """
    entry, rest = _sample_cycle(r, k, rng)
    return tuple(sorted(_cycle_sizes(k, entry, rest)))


def _sample_cycle(r: int, k: int, rng) -> tuple[int, list[int]]:
    """Entry special element and the shuffled order of the other elements."""
    _check_buckets(r, k)
    entry = rng.randrange(k)
    rest = list(range(r))
    del rest[entry]
    rng.shuffle(rest)
    return entry, rest


def _sample_parents(r: int, k: int, rng) -> list[int]:
    """Parent process: a uniform earlier parent for each i in [k, r)."""
    return [0] * k + [rng.randrange(i) for i in range(k, r)]


def _parent_owners(r: int, k: int, parents) -> list[int]:
    """Bucket of each element under the parent process; parents[i] < i for
    i in [k, r), and element j < k seeds bucket j."""
    owner = list(range(k)) + [0] * (r - k)
    for i in range(k, r):
        owner[i] = owner[parents[i]]
    return owner


def _parent_bucket_sizes(r: int, k: int, parents) -> list[int]:
    """Bucket sizes of the parent process, indexed by bucket."""
    owner = _parent_owners(r, k, parents)
    return [owner.count(j) for j in range(k)]


def sample_buckets_direct_sizes(r: int, k: int, rng) -> tuple[int, ...]:
    """Parent-process sampler for the sorted bucket sizes alone."""
    _check_buckets(r, k)
    return tuple(sorted(_parent_bucket_sizes(r, k, _sample_parents(r, k, rng))))


def _parent_space_size(r: int, k: int) -> int:
    return math.prod(range(k, r)) if r > k else 1


def enumerate_parent_buckets(r: int, k: int):
    """Yield (labelled sizes, exact probability) over all parent functions."""
    total = _parent_space_size(r, k)
    weight = Fraction(1, total)
    ranges = [range(i) for i in range(k, r)]
    for tail in itertools.product(*ranges):
        parents = [0] * k + list(tail)
        yield tuple(_parent_bucket_sizes(r, k, parents)), weight


def enumerate_cycle_buckets(r: int, k: int):
    """Yield (labelled sizes, exact probability) over all cycle outcomes."""
    total = k * math.factorial(r - 1)
    weight = Fraction(1, total)
    for entry in range(k):
        rest = [e for e in range(r) if e != entry]
        for order in itertools.permutations(rest):
            yield tuple(_cycle_sizes(k, entry, order)), weight


def enumerate_recursive_buckets(n: int, k: int):
    """Yield (sorted sizes, exact probability) over all identification paths.

    Complement bits and the final bijection do not affect sizes and are not
    enumerated.  Classes are tracked as a sorted multiset of sizes.
    """

    def walk(sizes: tuple[int, ...], weight: Fraction):
        m = len(sizes)
        if m == k:
            yield tuple(sorted(sizes)), weight
            return
        # Ordered pair (kept, removed) from m classes: m*(m-1) choices, but
        # merging class u into v and v into u give the same size multiset,
        # so enumerate unordered pairs with doubled weight.
        step = weight / (m * (m - 1))
        for u in range(m):
            for v in range(u + 1, m):
                merged = list(sizes)
                merged[u] += merged[v]
                del merged[v]
                yield from walk(tuple(merged), 2 * step)

    yield from walk((1,) * n, Fraction(1))


def _aggregate(pairs) -> dict:
    dist: dict[tuple[int, ...], Fraction] = {}
    for sizes, weight in pairs:
        key = tuple(sorted(sizes))
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def _recursive_bucket_sizes(r: int, k: int, rng) -> tuple[int, ...]:
    """Sorted bucket sizes of one run of the recursive sampler; at r == k
    there is nothing to identify and every bucket is its seed alone."""
    _check_buckets(r, k)
    if r == k:
        return (1,) * k
    return sample_restriction_recursive(r, k, rng).bucket_sizes()


# Each bucket process by its ``--process`` name: (sorted-size sampler
# (r, k, rng), count of its equally likely outcomes (r, k), enumerator (r, k)
# of (sizes, probability) pairs over those outcomes).
BUCKET_PROCESSES = {
    "recursive": (_recursive_bucket_sizes,
                  lambda r, k: math.prod(m * (m - 1) for m in range(k + 1, r + 1)),
                  enumerate_recursive_buckets),
    "direct": (sample_buckets_direct_sizes, _parent_space_size, enumerate_parent_buckets),
    "cycle": (sample_buckets_cycle_sizes, lambda r, k: k * math.factorial(r - 1),
              enumerate_cycle_buckets),
}


def exact_bucket_distribution(r: int, k: int, process: str = "direct",
                              budget: int = 10**7) -> dict:
    """Exact sorted-size distribution of a bucket process from its enumerator;
    raises BudgetExceededError if its count of equally likely outcomes
    exceeds ``budget``."""
    _check_buckets(r, k)
    _, outcomes, enumerate_outcomes = BUCKET_PROCESSES[process]
    total = outcomes(r, k)
    if total > budget:
        name = "parent" if process == "direct" else process
        raise BudgetExceededError(
            f"{name} enumeration needs {total} cases (budget {budget})",
            required=total,
            budget=budget,
        )
    return _aggregate(enumerate_outcomes(r, k))


def min_bucket_tail(r: int, k: int, trials: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of Pr[min bucket size >= r/(4k)], with std error.

    For r <= 4k the bound holds with probability 1 (every bucket has size
    at least 1 >= r/(4k)) and no sampling is done.
    """
    _check_buckets(r, k)
    if r <= 4 * k:
        return 1.0, 0.0
    threshold = r / (4 * k)
    hits = 0
    for _ in range(trials):
        if min(_parent_bucket_sizes(r, k, _sample_parents(r, k, rng))) >= threshold:
            hits += 1
    rate = hits / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return rate, stderr
