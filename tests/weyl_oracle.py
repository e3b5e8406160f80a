"""Weyl-group invariance of a q-character's weight image.

The weight map sends a q-character to the character of the underlying
module of the simple Lie algebra, which every simple reflection must
permute.  This check reads nothing but the weights, so it is independent
of the route that built the q-character.
"""

from qloop.ymono import weight


def weyl_invariant_weights(c, poly):
    """The weight multiset of poly, asserted invariant under each s_i."""
    multiset = {}
    for m, mult in poly.terms():
        multiset[weight(m)] = multiset.get(weight(m), 0) + mult
    for i in c.nodes():
        reflected = {}
        for wv, mult in multiset.items():
            reflected[wv.reflect(c, i)] = (reflected.get(wv.reflect(c, i), 0)
                                           + mult)
        assert reflected == multiset, i
    return multiset
