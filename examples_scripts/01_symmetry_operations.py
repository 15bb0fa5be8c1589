"""Parsing symmetry operations and working with translation lattices.

Crystallographic generators are usually written in the short "xyz"
notation, e.g. "-y, x, 1/4+z" for a fourfold screw rotation.  The
parser turns these into exact affine maps (integer linear part,
rational translation) so that every later computation stays exact.
"""

from crystpres import (
    AffineIsometry,
    finite_closure,
    hnf_lattice,
    inverse,
    parse_symop,
    format_symop,
)

# a 4_1 screw and a glide-like involution
a = parse_symop("-y, x, 1/4+z", 3)
b = parse_symop("-y, 1/4+x, -z", 3)

print("a     =", format_symop(a))
print("b     =", format_symop(b))
print("a*b   =", format_symop(a * b))
print("a^-1  =", format_symop(inverse(a)))

# powers of the screw accumulate translation; a^4 is a pure lattice shift
a4 = a * a * a * a
print("a^4   =", format_symop(a4), "-> translation", a4.translation)

# reduce the generators modulo the integer lattice; the result is the
# finite quotient G / Z^3.  finite_closure returns (kernel, reduce,
# elements): the elements are integer codes of one WalkKernel, an
# interned linear part plus N times the translation (N the lcm of the
# translation denominators), reduced to lattice coordinates in [0, 1);
# kernel.decode turns a code back into an exact map.  Note that the
# full translation subgroup of this group is strictly larger than Z^3
# (products of the screw and the involution produce fractional shifts),
# so this quotient is bigger than the point group itself.
lat = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
_, _, elements = finite_closure([a, b], lat)
print("order of the finite quotient modulo Z^3:", len(elements))
