"""The fuzzer's draw stream.

The randomized suites, ``run_random_suites`` and the benchmark's fuzz
workload all replay instances from a seed, so a change to the fuzzer must
not move what a seed draws.  Each seed here makes 20 ``random_instance``
draws and one mirrored ``random_chain`` on one Generator; the test pins
the Generator's state after them and a digest of every part of the draws
that comes from the rng's choices: the window, n, the q and w atom
positions and breakpoints, the extra points and f's breakpoints.
Rescaling a matrix (``_clip_norm``) or checking it (``MeasureMatrix``) must
leave both unchanged.
"""

import hashlib

import numpy as np
import pytest

from measureode.fuzz import random_chain, random_instance

# seed: (PCG64 state after the draws, sha256 of the drawn structure)
EXPECTED = {
    0: (102378018891355813025138164590524510055,
        "1887e886a513828aea30d28fe5f9d4803ec6f2ffffdea3384693da84aa19c6f9"),
    1: (65908958930663492201356365256216918992,
        "b5961d464eb74a60190294a69cee2efc51ed1419ae06252bd35867f389b8efd1"),
    2: (317714415478341610970873399522377248146,
        "c7992ffdca2bb4ced6b680509f4a1b94bdf8d685c8c063a462c806aa0c79c3c7"),
}


def _structure(instance) -> list:
    problem, f = instance.problem, instance.f
    return [instance.window, [problem.n], problem.q.atom_positions, problem.q.breakpoints,
            problem.w.atom_positions, problem.w.breakpoints, instance.extra_points,
            f.breakpoints if f is not None else []]


def _draw(seed: int) -> tuple[int, str]:
    rng = np.random.default_rng(seed)
    instances = [random_instance(rng) for _ in range(20)] + [random_chain(rng, 4, 2, True)]
    digest = hashlib.sha256()
    for instance in instances:
        for part in _structure(instance):
            part = np.asarray(part, dtype=float)
            digest.update(np.int64(part.size).tobytes() + part.tobytes())
    return rng.bit_generator.state["state"]["state"], digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_a_seed_draws_the_same_instances(seed):
    assert _draw(seed) == EXPECTED[seed]
