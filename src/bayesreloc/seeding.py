"""Deterministic random stream derivation.

Every stochastic step in the package draws from a generator keyed by an
integer path (root_seed, index, ...).  Equal paths give bit-identical
streams, so results never depend on evaluation order, batching, or how
the work is fanned out.

``derive_rng`` is the reference: numpy's ``SeedSequence`` of the path
seeds a ``PCG64``.  ``derive_rngs`` yields the same generators for a run
of consecutive last indices after each of several prefixes.  Most of
``derive_rng``'s cost is the ``SeedSequence`` hash, which is 32-bit
arithmetic, so it runs the hash for many paths at once as numpy array
operations and hands each row's state to ``PCG64`` through
``ISeedSequence``.  Training batches, scene splits and batched Monte
Carlo sampling (a block of queries' masks) draw through it.  The block
hash has a fixed cost of several ``derive_rng`` calls, so single draws,
such as the one mask per pass of one-query ``localize``, stay on
``derive_rng``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default
# pool of 4 words and no spawn key.  Constants are 0-d arrays: numpy
# applies them faster than scalars.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
# PCG64 asks for 4 uint64 words, that is 8 uint32 words read cyclically
# from the pool.
_STATE_SOURCES = np.arange(8) % _POOL_SIZE
# Rows hashed at once: bounds the hash's working arrays (about 250 bytes
# a row) for any count, and is long enough that the fixed cost is spread.
# The seeds kept for the yielded generators take 32 bytes a row.
_MAX_ROWS = 1024


def derive_rng(*path: int) -> np.random.Generator:
    """Return a fresh generator keyed by an integer path."""
    return np.random.default_rng(np.random.SeedSequence([p & _MASK64 for p in path]))


def derive_seed(*path: int) -> int:
    """Collapse an integer path into a single non-negative 63-bit seed."""
    ss = np.random.SeedSequence([p & _MASK64 for p in path])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


class _PoolState(ISeedSequence):
    """Stands in for a SeedSequence whose PCG64 seed is already computed."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"only generate_state(4, uint64) is precomputed, got ({n_words!r}, {dtype!r})"
            )
        return self._state


def _constant_run(init: int, mult: int, calls: int) -> list[int]:
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


@functools.lru_cache(maxsize=None)
def _hash_schedule(n_words: int) -> np.ndarray:
    """The (xor, multiply) constants of every hash step SeedSequence takes
    on n_words entropy words and in generate_state(4, uint64), as a
    (2, steps, 1) array in the order _pcg64_seeds takes the steps."""
    calls = itertools.count()
    steps = [next(calls) for _ in range(_POOL_SIZE)]
    for src in range(max(n_words, _POOL_SIZE)):
        # A pool word is not hashed into itself; that slot's result is dropped.
        steps += [0 if dst == src else next(calls) for dst in range(_POOL_SIZE)]
    a = _constant_run(_INIT_A, _MULT_A, max(steps) + 1)
    b = _constant_run(_INIT_B, _MULT_B, len(_STATE_SOURCES))
    pairs = [(a[i], a[i + 1]) for i in steps] + list(zip(b, b[1:]))
    schedule = np.array(pairs, dtype=np.uint32).T[:, :, None]
    schedule.flags.writeable = False  # shared by every caller through the cache
    return schedule


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value ^= xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for each column
    of a (words, rows) uint32 array, as a (rows, 4) uint64 array.

    The hash of one column is the same step list SeedSequence runs; a step
    that updates several pool words at once takes one array operation on
    all of them.
    """
    n_words, rows = entropy.shape
    xor, mult = np.repeat(_hash_schedule(n_words), rows, axis=2)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: min(n_words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    # Every pool word, then every entropy word beyond the pool, is hashed
    # into each pool word.  The targets of one source do not feed each
    # other, so all four are mixed in one step; a pool word's own slot is
    # then put back.
    for src in range(max(n_words, _POOL_SIZE)):
        own = pool[src].copy() if src < _POOL_SIZE else None
        steps = slice(_POOL_SIZE * (src + 1), _POOL_SIZE * (src + 2))
        words = (pool if own is not None else entropy).take(np.full(_POOL_SIZE, src), axis=0)
        hashed = _hashmix(words, xor[steps], mult[steps])
        pool *= _MIX_MULT_L
        hashed *= _MIX_MULT_R
        pool -= hashed
        pool ^= pool >> _XSHIFT
        if own is not None:
            pool[src] = own
    last = _POOL_SIZE * (max(n_words, _POOL_SIZE) + 1)
    state = _hashmix(pool.take(_STATE_SOURCES, axis=0), xor[last:], mult[last:])
    # Word pairs are little-endian, as SeedSequence reads them.
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


def _path_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of one masked path element."""
    value = operator.index(value) & _MASK64
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def derive_rngs(
    prefixes: Sequence[Sequence[int]], start: int, count: int
) -> Iterator[np.random.Generator]:
    """Yield ``derive_rng(*p, start + j)`` for each prefix p and, within
    it, j = 0, ..., count - 1, made one at a time.

    The generators are bit-identical to ``derive_rng``'s.  The hash sees a
    path only as its SeedSequence words, so the seeds of all paths of one
    word count are hashed together, up to _MAX_ROWS at once.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    heads = [[w for p in prefix for w in _path_words(p)] for prefix in prefixes]
    first = operator.index(start) & _MASK64
    # An index takes a second SeedSequence word from 2**32 on, and one again
    # once it wraps past 2**64 - 1: cut the run of indices there.
    cuts = sorted({0, count} | {b - first for b in (_MASK32 + 1, _MASK64 + 1) if 0 < b - first < count})
    groups: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}  # word count: (rows, entropy) pieces
    for lo, hi in zip(cuts, cuts[1:]):
        words = 1 if (first + lo) & _MASK64 <= _MASK32 else 2
        index = np.arange(hi - lo, dtype=np.uint64) + np.uint64((first + lo) & _MASK64)
        tail = np.array([index & np.uint64(_MASK32), index >> np.uint64(32)], dtype=np.uint32)[:words, None]
        for width in {len(h) for h in heads}:
            group = [q for q, h in enumerate(heads) if len(h) == width]
            entropy = np.empty((width + words, len(group), hi - lo), dtype=np.uint32)
            entropy[:width] = np.array([heads[q] for q in group], dtype=np.uint32).T[:, :, None]
            entropy[width:] = tail
            rows = np.arange(lo, hi) + count * np.array(group)[:, None]
            groups.setdefault(width + words, []).append((rows.ravel(), entropy.reshape(width + words, -1)))
    seeds = np.empty((len(heads) * count, 4), dtype=np.uint64)
    for parts in groups.values():
        rows, entropy = parts[0] if len(parts) == 1 else (np.concatenate(a, axis=-1) for a in zip(*parts))
        for lo in range(0, len(rows), _MAX_ROWS):
            seeds[rows[lo : lo + _MAX_ROWS]] = _pcg64_seeds(entropy[:, lo : lo + _MAX_ROWS])
    for seed in seeds:
        yield np.random.Generator(np.random.PCG64(_PoolState(seed)))
