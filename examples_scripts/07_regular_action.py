"""A net as the Cayley graph of a crystallographic group.

When a group acts freely and transitively on the vertices of a net,
the net is a Cayley graph of the group and group words become walks.
Here the Cayley graph of a body-centred tetragonal group is built from
two generators and compared with the bundled zeolite-framework net.
"""

import os

from crystpres import (
    catalog_load,
    from_cayley,
    net_coordination_sequence,
    parse_generating_set,
    regular_action_check,
    schlafli_symbol,
)

HERE = os.path.dirname(__file__)
with open(os.path.join(HERE, os.pardir, "corpus", "gis_i41a.json")) as fh:
    doc = parse_generating_set(fh.read())

g = from_cayley(doc.generators)
print("vertices per primitive cell:", g.n)
print("coordination sequence:", net_coordination_sequence(g, 0, 5))
print("ring symbol:", schlafli_symbol(g, max_size=8))

cat = catalog_load("gis")
print("catalog net matches:",
      net_coordination_sequence(cat, 0, 5) == net_coordination_sequence(g, 0, 5))

# exact certificate that the group really acts regularly: each
# generator is a net automorphism, and the group modulo its translation
# lattice L moves the base vertex onto every vertex orbit of L once
verdict = regular_action_check(cat, [op for _, op in doc.generators])
print("regular action on the catalog embedding:", verdict)
