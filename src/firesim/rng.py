"""Counter-based random number streams.

Every random quantity in the simulator is a pure function of
(master_seed, stream, counter).  Streams identify logical sources of
randomness (a lattice site, a space-time cell, a replication) and the
counter indexes draws within a stream, so values never depend on query
order, window growth, or worker scheduling.

The generator is the splitmix64 finalizer applied twice to an odd-affine
combination of the three inputs; statistical independence of disjoint
streams is checked empirically in the test suite.
"""

from __future__ import annotations

import numpy as np

_A = np.uint64(0x9E3779B97F4A7C15)   # golden-ratio increment
_B = np.uint64(0xBF58476D1CE4E5B9)
_C = np.uint64(0x94D049BB133111EB)
_D = np.uint64(0xD6E8FEB86659FD93)
_ONE = np.uint64(1)

# stream-id salts keeping the logical sources disjoint
SALT_SITE = 0x100000000
SALT_CELL = 0x200000000
SALT_PROFILE = 0x300000000
SALT_REP = 0x400000000
SALT_VACANCY = 0x500000000


def _u64(x) -> np.ndarray:
    """x as a uint64 array of at least one dimension: array arithmetic wraps
    modulo 2**64 without the overflow warning of numpy scalar arithmetic."""
    return np.atleast_1d(np.asarray(x, dtype=np.uint64))


def _scalar(*inputs) -> bool:
    """True when no input is an array: the result is then one value."""
    return not any(np.ndim(x) for x in inputs)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _B
    z = (z ^ (z >> np.uint64(27))) * _C
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed, stream, counter):
    """Uniform(0,1) draw(s) for (seed, stream, counter); broadcasts, and
    returns a float when all three are scalars."""
    z = _mix(_mix(_u64(seed) * _A + _u64(stream) * _C + _u64(counter) * _D + _B))
    # 53 significant bits, strictly inside (0, 1)
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) / 9007199254740992.0
    return float(u[0]) if _scalar(seed, stream, counter) else u


def counter_exponential(seed, stream, counter):
    """Unit-rate exponential draw(s), same determinism contract."""
    return -np.log(counter_uniform(seed, stream, counter))


def _stream(inputs, weights, salt: int, mult: np.uint64):
    """Stream id(s) (sum of input * weight + salt) * mult, modulo 2**64; one
    numpy uint64 when no input is an array."""
    z = (sum(_u64(x) * w for x, w in zip(inputs, weights)) + np.uint64(salt)) * mult
    return z[0] if _scalar(*inputs) else z


def site_stream(x):
    """Stream id for lattice site x (discrete model)."""
    return _stream((x,), (_ONE,), SALT_SITE, _A)


def vacancy_stream(x):
    """Stream id for the vacancy waits of lattice site x (memoryless state)."""
    return _stream((x,), (_ONE,), SALT_VACANCY, _A)


def cell_stream(i, j):
    """Stream id for the unit space-time cell [i,i+1)x[j,j+1)."""
    return _stream((i, j), (_B, _C), SALT_CELL, _A)


def profile_stream(x):
    """Stream id for sampling the rate of site x (iid-uniform profiles)."""
    return _stream((x,), (_ONE,), SALT_PROFILE, _C)


def replication_seed(master_seed: int, index: int) -> int:
    """Derived master seed for replication `index`; independent across indices."""
    z = _u64(master_seed) * _A + _u64(index) * _C + np.uint64(SALT_REP)
    return int(_mix(_mix(z))[0])


def rep_rng(master_seed: int, index: int) -> np.random.Generator:
    """numpy Generator for replication-local bulk sampling."""
    return np.random.Generator(np.random.Philox(key=replication_seed(master_seed, index)))
