"""The recursive bucket-process sampler written plainly, shared by the tests:
the reference for the random calls and the output of
``restrict.sample_restriction_recursive``, and the only source of its merge
steps; plain forms of ``restrict.uniform_buckets`` and of the cycle
sampler's draw, written with ``random``'s own bounded-integer calls; and
``restriction_from_phi``, which builds a restriction from an explicit
variable map."""

from __future__ import annotations

from gridcode.restrict import Restriction


def restriction_from_phi(n, k, phi, shift):
    """The restriction that sends variable i to output phi[i], with
    complement mask shift."""
    buckets = [0] * k
    for i, j in enumerate(phi):
        buckets[j] |= 1 << i
    return Restriction(n, buckets, shift)


def reference_recursive(n, k, rng):
    """The recursive sampler with ``rng.sample`` per round and an alias chase
    per variable.  Returns (restriction, steps, bijection, final_shift): the
    (kept, removed, flip) tuple of each round, the output index of each
    survivor and the final complement bit of each survivor."""
    survivors = list(range(n))
    alias = {}
    steps = []
    while len(survivors) > k:
        kept, removed = rng.sample(survivors, 2)
        flip = rng.getrandbits(1)
        alias[removed] = (kept, flip)
        survivors.remove(removed)
        steps.append((kept, removed, flip))
    targets = list(range(k))
    rng.shuffle(targets)
    bijection = dict(zip(survivors, targets))
    final_shift = {s: rng.getrandbits(1) for s in survivors}
    phi = [0] * n
    shift = 0
    for i in range(n):
        root, flip = i, 0
        while root in alias:
            root, f = alias[root]
            flip ^= f
        phi[i] = bijection[root]
        if flip ^ final_shift[root]:
            shift |= 1 << i
    return restriction_from_phi(n, k, phi, shift), steps, bijection, final_shift


def reference_uniform_buckets(n, k, rng):
    """The uniform map [n] -> [k] by one ``rng.randrange(k)`` per variable, in
    order, as bucket masks."""
    buckets = [0] * k
    for i in range(n):
        buckets[rng.randrange(k)] |= 1 << i
    return buckets


def reference_cycle(r, k, rng):
    """The cycle sampler's draw: entry ``rng.randrange(k)``, then
    ``rng.shuffle`` of the other elements in ascending order."""
    entry = rng.randrange(k)
    rest = [e for e in range(r) if e != entry]
    rng.shuffle(rest)
    return entry, rest
