"""The seed's own replay of a cluster variable, as a test oracle.

`qloop.cluster` replays a variable's path only on the principal-
coefficient copy of its seed.  The replay on the seed itself, frozen
variables and all, is kept here to check the denominator vectors and
expansions read off the principal one, and so is the key of a seed by
its set of variables, which the oracle enumerations compare seeds by.
The scan of every variable's denominator vector is kept here too:
`qloop.engine` finds a level-1 variable by its g-vector instead.
"""

from qloop.cluster import mutate
from qloop.errors import ConsistencyError


def frozen_expansion(cv):
    """cv's Laurent expansion in the initial variables of its seed."""
    seed = cv.seed
    for k in cv.path:
        seed = mutate(seed, k)
    return seed.var(cv.vertex)


def cluster_key(seed) -> frozenset:
    """The seed's cluster: the set of its mutable variables' expansions."""
    return frozenset(seed.variables.values())


def variable_by_denominator(graph, beta):
    """The unique variable whose denominator vector is beta, indexed like
    graph.seed.mutable; the scan replays every variable."""
    hits = [cv for cv in graph.variables.values() if cv.dvector == tuple(beta)]
    if len(hits) != 1:
        raise ConsistencyError(
            f"{len(hits)} variables have denominator vector {tuple(beta)}")
    return hits[0]
