import hashlib
import random

from expodom.enumeration import trees_up_to
from expodom.family import tau
from expodom.graph import connected_components
from expodom.graph6 import emit_graph6
from expodom.lp import canonical_tree_solution
from expodom.weights import weight_profile

from _oracles import random_subcubic_graph

# sha256 digests computed when weight profiles and tau values were returned
# as dyadic objects and canonical_tree_solution read its rows from the
# Fraction LP model.  Every value is hashed as "num/den", so equal digests
# mean the same exact numbers and the same witnesses.
PINNED_WEIGHT_TAU_DIGEST = "7f88d1d70b46d0bac0cc573d70c27caff35afdeff5c9675c4c1e9a7aa723f528"
PINNED_CANONICAL_DIGEST = "3f0d7aa1c0a4a3085cf564cbf5acf4930b7d032e050a071428eb9a32833d1fbb"


def _ratio(q) -> str:
    return f"{q.numerator}/{q.denominator}"


def _corpus():
    rng = random.Random(2016)
    randoms = [random_subcubic_graph(rng) for _ in range(40)]
    return list(trees_up_to(9)) + randoms


def _dominator_sets(n):
    yield ()
    for u in range(n):
        yield (u,)
        for v in range(u + 1, n):
            yield (u, v)


def test_weight_profiles_and_tau_pinned_values():
    digest = hashlib.sha256()
    cyclic = disconnected = 0
    for g in _corpus():
        parts = len(connected_components(g))
        cyclic += len(g.edges()) > g.n - parts
        disconnected += parts > 1
        digest.update(emit_graph6(g).encode() + b"\n")
        for dset in _dominator_sets(g.n):
            prof = weight_profile(g, dset)
            line = " ".join(
                [repr(prof.dominators), *map(_ratio, prof.blocked), "|",
                 *map(_ratio, prof.porous), "|",
                 _ratio(prof.min_blocked()), _ratio(prof.min_porous())]
            )
            digest.update(line.encode() + b"\n")
        for x in range(g.n):
            got = tau(g, x)
            line = f"tau {x} {_ratio(got.value)} {got.witness!r}"
            digest.update(line.encode() + b"\n")
    assert (cyclic, disconnected) == (11, 11)
    assert digest.hexdigest() == PINNED_WEIGHT_TAU_DIGEST


def test_canonical_tree_solution_pinned_values():
    digest = hashlib.sha256()
    for t in trees_up_to(11):
        sol = canonical_tree_solution(t)
        line = " ".join(
            [emit_graph6(t), *map(_ratio, sol.primal), "|",
             *map(_ratio, sol.dual), "|", _ratio(sol.objective),
             str(sol.primal_feasible), str(sol.dual_feasible),
             str(sol.all_tight)]
        )
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_CANONICAL_DIGEST
