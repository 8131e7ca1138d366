"""Random variable-identification restrictions and the bucket (set-union) process.

A restriction collapses n cube variables to k by mapping each variable i to an
output variable phi(i), optionally complemented: x_i(y) = y_{phi(i)} xor a_i.
It is held as its bucket masks, bucket j being the mask of the variables with
phi(i) = j, so a query point is the shift mask xored with the buckets of the
set bits of y.  Three samplers produce the same bucket-size distribution:

  * the recursive process (repeatedly identify a random pair, then relabel),
  * the direct parent process (each index above k picks a uniform earlier parent),
  * the cycle sampler (arrange all elements on a cycle entered at a uniform
    special element; each special element owns the arc up to the next special).

``BUCKET_PROCESSES`` gives each its sizes sampler, the factors of its outcome
count and its exact enumerator, so the equivalence can be checked as an
identity of rational distributions; an enumeration past ``BUCKET_BUDGET``
outcomes raises instead.
``uniform_buckets`` draws the i.i.d. uniform map of the tolerant tester and
the decoder, whose buckets may be empty.

The samplers of the tester, the decoder and the cycle process call
``rng.getrandbits`` directly: a draw below m is ``getrandbits(m.bit_length())``
repeated until it is below m, the algorithm of CPython's
``Random._randbelow_with_getrandbits``, and a shuffle is the top-down swap
loop of ``Random.shuffle``.  They make exactly the calls of ``randrange``,
``sample`` and ``shuffle``, and leave the generator in the same state.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import check_budget


class Restriction:
    """A restriction as its k bucket masks plus complement mask, all indices
    0-based.

    Bit i of ``buckets[j]`` is set iff phi(i) = j, so the masks are disjoint
    and cover [n], and k = len(buckets); a bucket may be empty.  Bit i of
    ``shift_mask`` is the complement bit a_i.
    """

    def __init__(self, n: int, buckets, shift_mask: int):
        buckets = tuple(buckets)
        if n < 1 or not buckets:
            raise ValueError("dimensions must be positive")
        # Non-negative masks summing to [n] are disjoint iff no bit carries,
        # that is iff their sizes add up to n.
        if min(buckets) < 0 or sum(buckets) != (1 << n) - 1 or \
                sum(b.bit_count() for b in buckets) != n:
            raise ValueError(f"bucket masks must be disjoint and cover the variables 0..{n - 1}")
        if not 0 <= shift_mask < (1 << n):
            raise ValueError("shift mask out of range")
        self.n = n
        self.k = len(buckets)
        self.buckets = buckets
        self.shift_mask = shift_mask

    def __repr__(self):
        buckets = ", ".join(f"{b:0{self.n}b}" for b in self.buckets)
        return f"Restriction(n={self.n}, buckets=({buckets}), shift={self.shift_mask:0{self.n}b})"

    def __eq__(self, other):
        return (
            isinstance(other, Restriction)
            and other.n == self.n
            and other.buckets == self.buckets
            and other.shift_mask == self.shift_mask
        )

    def bucket_sizes(self) -> tuple[int, ...]:
        """Sorted sizes of the buckets."""
        return tuple(sorted(b.bit_count() for b in self.buckets))


def _shuffle(items: list, getrandbits) -> None:
    """Shuffle in place with the draws of CPython's ``Random.shuffle``: from
    the top position down, the position j drawn below top + 1 (as
    ``getrandbits((top + 1).bit_length())`` repeated until it is at most top)
    swaps with top."""
    for top in range(len(items) - 1, 0, -1):
        bits = (top + 1).bit_length()
        j = getrandbits(bits)
        while j > top:
            j = getrandbits(bits)
        items[top], items[j] = items[j], items[top]


def uniform_buckets(n: int, k: int, rng) -> list[int]:
    """The bucket masks of an i.i.d. uniform map [n] -> [k]: variable i, in
    order, joins the bucket drawn as ``getrandbits(k.bit_length())`` repeated
    until it is below k, the calls of ``rng.randrange(k)``.  Buckets may be
    empty."""
    getrandbits = rng.getrandbits
    bits = k.bit_length()
    buckets = [0] * k
    for i in range(n):
        j = getrandbits(bits)
        while j >= k:
            j = getrandbits(bits)
        buckets[j] |= 1 << i
    return buckets


def sample_restriction_recursive(n: int, k: int, rng) -> Restriction:
    """Sample a restriction by n-k random pairwise identifications.

    Each round picks distinct surviving variables (kept, removed) and a bit,
    substituting x_removed := bit xor x_kept.  A uniform bijection onto the
    outputs and a uniform complement per survivor finish the job.  The random
    calls are those of ``rng.sample(survivors, 2)`` and ``rng.getrandbits(1)``
    per round, then ``rng.shuffle`` of the outputs and one ``getrandbits(1)``
    per survivor, each bounded draw and the shuffle written out with
    ``getrandbits`` as the module docstring describes.
    """
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    getrandbits = rng.getrandbits
    survivors = list(range(n))
    # members[v]: the variables merged into survivor v, v among them;
    # odd[v]: those of them complemented relative to x_v.
    members = [1 << v for v in range(n)]
    odd = [0] * n
    for m in range(n, k, -1):
        # The positions rng.sample(survivors, 2) picks, from the same draws
        # as CPython's Random.sample: up to 21 elements it draws from a pool
        # whose vacancy is refilled by the last element; above that it
        # redraws the second position until it differs.
        bits = m.bit_length()
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        if m <= 21:
            bits = (m - 1).bit_length()
            j = getrandbits(bits)
            while j >= m - 1:
                j = getrandbits(bits)
            if j == i:
                j = m - 1
        else:
            j = getrandbits(bits)
            while j >= m or j == i:
                j = getrandbits(bits)
        kept = survivors[i]
        removed = survivors.pop(j)
        # x_removed := flip xor x_kept complements the removed class, relative
        # to x_kept, exactly when flip is 1.
        odd[kept] |= odd[removed] ^ members[removed] if getrandbits(1) else odd[removed]
        members[kept] |= members[removed]

    targets = list(range(k))
    _shuffle(targets, getrandbits)
    buckets = [0] * k
    shift = 0
    for s, t in zip(survivors, targets):
        buckets[t] = members[s]
        shift |= odd[s] ^ members[s] if getrandbits(1) else odd[s]
    return Restriction(n, buckets, shift)


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
    buckets = [0] * k
    shift = 0
    for pos, var in enumerate(perm):
        buckets[owner[pos]] |= 1 << var
        shift |= bits[pos] << var
    return Restriction(n, buckets, shift)


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
    """Entry special element and the shuffled order of the other elements:
    the ``getrandbits`` calls of ``rng.randrange(k)``, then of
    ``rng.shuffle``."""
    _check_buckets(r, k)
    getrandbits = rng.getrandbits
    bits = k.bit_length()
    entry = getrandbits(bits)
    while entry >= k:
        entry = getrandbits(bits)
    rest = list(range(r))
    del rest[entry]
    _shuffle(rest, getrandbits)
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


def enumerate_parent_buckets(r: int, k: int):
    """Yield (labelled sizes, exact probability) over all parent functions."""
    weight = Fraction(1, math.prod(range(k, r)))
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
# (r, k, rng), factors (r, k) whose product counts its equally likely
# outcomes, enumerator (r, k) of (sizes, probability) pairs over those
# outcomes).
BUCKET_PROCESSES = {
    "recursive": (_recursive_bucket_sizes,
                  lambda r, k: (m * (m - 1) for m in range(k + 1, r + 1)),
                  enumerate_recursive_buckets),
    "direct": (sample_buckets_direct_sizes, lambda r, k: range(k, r), enumerate_parent_buckets),
    "cycle": (sample_buckets_cycle_sizes, lambda r, k: (k, *range(2, r)),
              enumerate_cycle_buckets),
}

# Most equally likely outcomes an exact bucket enumeration may walk.
BUCKET_BUDGET = 10**7


def exact_bucket_distribution(r: int, k: int, process: str = "direct") -> dict:
    """Exact sorted-size distribution of a bucket process from its enumerator;
    raises BudgetExceededError if its count of equally likely outcomes
    exceeds ``BUCKET_BUDGET``."""
    _check_buckets(r, k)
    _, factors, enumerate_outcomes = BUCKET_PROCESSES[process]
    name = "parent" if process == "direct" else process
    check_budget(itertools.accumulate(factors(r, k), operator.mul), BUCKET_BUDGET,
                 f"{name} enumeration needs {{count}} cases")
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
